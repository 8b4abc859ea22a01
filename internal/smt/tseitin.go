package smt

import (
	"fmt"

	"spes/internal/fol"
	"spes/internal/sat"
)

// instance is the per-query propositional encoding state: the CDCL solver,
// the atom vocabulary, and the Tseitin gate cache. Formulas arrive interned
// (CheckSat interns on entry), so atoms and gates key on dense term IDs —
// a map lookup is a uint32 hash, never a canonical-string walk — and
// structurally equal sub-formulas share gates by pointer identity.
type instance struct {
	sat      *sat.Solver
	atomVar  map[uint32]int // atom ID -> SAT variable
	atoms    []*fol.Term    // ordered atom vocabulary
	atomVars [][]*fol.Term  // per-atom fol.Vars, cached once at registration
	gates    map[uint32]sat.Lit
	trueLit  sat.Lit
	hasTrue  bool

	// Incremental-session state. theory is the persistent congruence engine
	// shared by every theory check on this instance (registration
	// accumulates; assertions are trail-undone). trichoDone marks how much
	// of the atom vocabulary already has trichotomy clauses; defsDone marks
	// how many of the owning session's ITE definitions this instance has
	// asserted.
	theory     *euf
	trichoDone int
	defsDone   int
	// dead marks a prefix case refuted without using any suffix guard:
	// the clause database — prefix, definitional constraints, theory-valid
	// lemmas, retired guards — is unsatisfiable on its own, so no future
	// suffix can revive the case and the session skips it outright.
	dead bool
	// store, when non-nil, is the owning session's shared lemma memory;
	// lemmaOn flags which of its lemmas this instance has asserted.
	store   *lemmaStore
	lemmaOn []bool
	// shared, when non-nil, is the cross-pair lemma pool (see LemmaPool).
	// Its lemmas are keyed on canonical atom keys, so atomByKey indexes the
	// vocabulary by key alongside atomVar's ID index; sharedOn flags which
	// pool lemmas this instance has asserted.
	shared    *LemmaPool
	atomByKey map[string]*fol.Term
	sharedOn  []bool
	// base is the atom set of this instance's prefix case, fixed at
	// promotion; live, when non-nil, restricts which atoms the theory layer
	// examines for the current check (see modelLits).
	base map[uint32]bool
	live map[uint32]bool
}

func newInstance() *instance {
	return &instance{
		sat:       sat.New(),
		atomVar:   make(map[uint32]int),
		gates:     make(map[uint32]sat.Lit),
		atomByKey: make(map[string]*fol.Term),
	}
}

// constTrue returns a literal forced true at the top level.
func (in *instance) constTrue() sat.Lit {
	if !in.hasTrue {
		v := in.sat.NewVar()
		in.trueLit = sat.MkLit(v, false)
		in.sat.AddClause(in.trueLit)
		in.hasTrue = true
	}
	return in.trueLit
}

// atomLit registers a theory atom and returns its literal. The vocabulary
// keys on term IDs, so atoms must belong to the solver's interner.
func (in *instance) atomLit(t *fol.Term) sat.Lit {
	if v, ok := in.atomVar[t.ID()]; ok {
		return sat.MkLit(v, false)
	}
	v := in.sat.NewVar()
	in.atomVar[t.ID()] = v
	in.atoms = append(in.atoms, t)
	if in.shared != nil {
		in.atomByKey[t.Key()] = t
	}
	// Cache the atom's variables now: the model-round loop partitions
	// literals into variable-connected components every round, and
	// re-walking each atom's tree there dominated hot profiles.
	in.atomVars = append(in.atomVars, fol.Vars(t))
	return sat.MkLit(v, false)
}

// encode Tseitin-encodes a boolean term and returns the literal equivalent
// to it. Gates are shared across structurally equal sub-formulas.
func (in *instance) encode(t *fol.Term) sat.Lit {
	switch t.Kind {
	case fol.KTrue:
		return in.constTrue()
	case fol.KFalse:
		return in.constTrue().Not()
	case fol.KNot:
		return in.encode(t.Args[0]).Not()
	case fol.KEq, fol.KLe, fol.KLt, fol.KVar, fol.KApp:
		return in.atomLit(t)
	}

	key := t.ID()
	if g, ok := in.gates[key]; ok {
		return g
	}
	switch t.Kind {
	case fol.KAnd:
		lits := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			lits[i] = in.encode(a)
		}
		g := sat.MkLit(in.sat.NewVar(), false)
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, g)
		for _, l := range lits {
			in.sat.AddClause(g.Not(), l)
			long = append(long, l.Not())
		}
		in.sat.AddClause(long...)
		in.gates[key] = g
		return g
	case fol.KOr:
		lits := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			lits[i] = in.encode(a)
		}
		g := sat.MkLit(in.sat.NewVar(), false)
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, g.Not())
		for _, l := range lits {
			in.sat.AddClause(g, l.Not())
			long = append(long, l)
		}
		in.sat.AddClause(long...)
		in.gates[key] = g
		return g
	case fol.KIff:
		a := in.encode(t.Args[0])
		b := in.encode(t.Args[1])
		g := sat.MkLit(in.sat.NewVar(), false)
		in.sat.AddClause(g.Not(), a.Not(), b)
		in.sat.AddClause(g.Not(), a, b.Not())
		in.sat.AddClause(g, a, b)
		in.sat.AddClause(g, a.Not(), b.Not())
		in.gates[key] = g
		return g
	}
	panic(fmt.Sprintf("smt: cannot encode term kind %v (%v)", t.Kind, t))
}

// addTrichotomy adds, for every numeric equality atom a = b in the
// vocabulary, the valid clause (a=b) ∨ (a<b) ∨ (b<a). Without it, a model
// asserting ¬(a=b) would give the arithmetic theory nothing to refute, since
// the simplex cannot represent disequalities directly. It is incremental:
// atoms already covered by an earlier call are skipped, so sessions call it
// after each suffix encoding to cover only the new vocabulary.
func (in *instance) addTrichotomy() {
	// The vocabulary may grow while we add clauses (the Lt atoms are new);
	// iterate by index.
	for i := in.trichoDone; i < len(in.atoms); i++ {
		t := in.atoms[i]
		if t.Kind != fol.KEq || t.Args[0].Sort != fol.SortNum {
			continue
		}
		eq := in.atomLit(t)
		lt1 := in.encode(fol.Lt(t.Args[0], t.Args[1]))
		lt2 := in.encode(fol.Lt(t.Args[1], t.Args[0]))
		in.sat.AddClause(eq, lt1, lt2)
	}
	in.trichoDone = len(in.atoms)
}

// lemmaStore accumulates theory-refuted cores across every instance a
// session creates. A blocked core is a theory-valid fact — ¬(l₁ ∧ … ∧ lₖ)
// holds in every theory model, independent of which formula exposed it — so
// any instance whose atom vocabulary covers a core may assert its blocking
// clause up front and skip the model rounds that would rediscover the same
// conflict. This is what survives the session's lazy promotion: the joint
// first check's instances are thrown away, but the theory facts they paid
// model rounds for replay into the persistent prefix instances.
type lemmaStore struct {
	lemmas [][]theoryLit
	seen   map[uint64]bool
}

// maxStoredLemmas bounds a session's lemma memory. Cores are tiny (they are
// minimized), so this is generous; a session that somehow overflows it just
// stops remembering, never misbehaves.
const maxStoredLemmas = 512

func newLemmaStore() *lemmaStore {
	return &lemmaStore{seen: make(map[uint64]bool)}
}

// record remembers a freshly learned theory core, deduplicating by the
// atoms' interned IDs and polarities.
func (ls *lemmaStore) record(core []theoryLit) {
	if ls == nil || len(ls.lemmas) >= maxStoredLemmas {
		return
	}
	var key uint64 = 1469598103934665603 // FNV offset basis
	for _, l := range core {
		id := uint64(l.atom.ID()) << 1
		if l.pos {
			id |= 1
		}
		// Order-independent mix: minimization may emit the same core in a
		// different literal order.
		key += id * 1099511628211
	}
	if ls.seen[key] {
		return
	}
	ls.seen[key] = true
	ls.lemmas = append(ls.lemmas, append([]theoryLit(nil), core...))
}

// replayLemmas asserts every stored lemma whose atoms are all registered in
// this instance's vocabulary and not yet asserted here. Lemmas touching
// unregistered atoms are skipped — asserting them would grow the vocabulary
// and force models to cover atoms the formula never mentions.
func (in *instance) replayLemmas() {
	if in.store == nil {
		return
	}
	for i, core := range in.store.lemmas {
		if i < len(in.lemmaOn) && in.lemmaOn[i] {
			continue
		}
		for len(in.lemmaOn) <= i {
			in.lemmaOn = append(in.lemmaOn, false)
		}
		covered := true
		for _, l := range core {
			if _, ok := in.atomVar[l.atom.ID()]; !ok {
				covered = false
				break
			}
		}
		if covered {
			in.block(core)
			in.lemmaOn[i] = true
		}
	}
}

// replayShared asserts every pool lemma whose atoms are all registered in
// this instance's vocabulary (matched by canonical key) and not yet asserted
// here. Like replayLemmas, lemmas touching unregistered atoms are skipped —
// they would grow the vocabulary past what the formula mentions — and may be
// picked up by a later call once a suffix registers the missing atoms.
func (in *instance) replayShared() {
	if in.shared == nil {
		return
	}
	lemmas := in.shared.view()
	for i, lits := range lemmas {
		if i < len(in.sharedOn) && in.sharedOn[i] {
			continue
		}
		for len(in.sharedOn) <= i {
			in.sharedOn = append(in.sharedOn, false)
		}
		core := make([]theoryLit, len(lits))
		covered := true
		for j, l := range lits {
			t, ok := in.atomByKey[l.AtomKey]
			if !ok {
				covered = false
				break
			}
			core[j] = theoryLit{atom: t, pos: l.Pos}
		}
		if covered {
			in.block(core)
			in.sharedOn[i] = true
		}
	}
}

// walkAtoms collects the theory atoms of a boolean term into dst, walking
// the interned DAG with a visited set so shared sub-formulas cost one visit.
// It mirrors encode's atom classification exactly: every atom encode would
// register from the term is collected here.
func walkAtoms(t *fol.Term, visited, dst map[uint32]bool) {
	if visited[t.ID()] {
		return
	}
	visited[t.ID()] = true
	switch t.Kind {
	case fol.KTrue, fol.KFalse:
	case fol.KNot:
		walkAtoms(t.Args[0], visited, dst)
	case fol.KEq, fol.KLe, fol.KLt, fol.KVar, fol.KApp:
		dst[t.ID()] = true
	default:
		for _, a := range t.Args {
			walkAtoms(a, visited, dst)
		}
	}
}

// modelLits extracts the theory literals implied by the current SAT model.
//
// When live is set, atoms outside it are skipped: a retired suffix's atoms
// still receive SAT values, but the current check only decides
// prefix ∧ current-suffix, and a theory model of the literals that formula
// mentions always extends to the rest — retired guards are satisfiable by
// construction and stale ITE definitions only constrain their own fresh
// variables. Filtering is what keeps a long-lived session's model rounds
// proportional to the current check instead of to everything it ever saw:
// blocking clauses stay over live literals, so one conflict prunes every
// propositional model that differs only in stale atoms.
func (in *instance) modelLits() []theoryLit {
	out := make([]theoryLit, 0, len(in.atoms))
	for i, t := range in.atoms {
		if in.live != nil && !in.live[t.ID()] {
			continue
		}
		v := in.atomVar[t.ID()]
		out = append(out, theoryLit{atom: t, pos: in.sat.Value(v), vars: in.atomVars[i]})
	}
	return out
}

// block adds a clause forbidding the given literal conjunction.
func (in *instance) block(core []theoryLit) {
	cl := make([]sat.Lit, len(core))
	for i, l := range core {
		lit := in.atomLit(l.atom)
		if l.pos {
			lit = lit.Not()
		}
		cl[i] = lit
	}
	in.sat.AddClause(cl...)
}
