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

	// theory is the congruence engine shared by every theory check on this
	// instance (registration accumulates; assertions are trail-undone).
	theory *euf
	// store is the owning check's lemma memory (see lemmaStore).
	store *lemmaStore
}

func newInstance() *instance {
	return &instance{
		sat:     sat.New(),
		atomVar: make(map[uint32]int),
		gates:   make(map[uint32]sat.Lit),
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
// the simplex cannot represent disequalities directly.
func (in *instance) addTrichotomy() {
	// The vocabulary grows while we add clauses (the Lt atoms are new);
	// iterate by index.
	for i := 0; i < len(in.atoms); i++ {
		t := in.atoms[i]
		if t.Kind != fol.KEq || t.Args[0].Sort != fol.SortNum {
			continue
		}
		eq := in.atomLit(t)
		lt1 := in.encode(fol.Lt(t.Args[0], t.Args[1]))
		lt2 := in.encode(fol.Lt(t.Args[1], t.Args[0]))
		in.sat.AddClause(eq, lt1, lt2)
	}
}

// lemmaStore accumulates the theory cores one CheckSat learns across the
// instances of its cases. A blocked core is a theory-valid fact —
// ¬(l₁ ∧ … ∧ lₖ) holds in every theory model, independent of which formula
// exposed it — so a later case whose atom vocabulary covers a core asserts
// its blocking clause up front and skips the model rounds that would
// rediscover the same conflict.
//
// No core is ever recorded twice, so the store needs no dedupe: a core is
// learned from a propositional model that contains it, an instance blocks
// every core it learns or replays, and a later instance either replays a
// stored core or lacks one of its atoms.
type lemmaStore struct {
	lemmas [][]theoryLit
}

// maxStoredLemmas bounds a check's lemma memory. Cores are tiny (they are
// minimized), so this is generous; a check that somehow overflows it just
// stops remembering, never misbehaves.
const maxStoredLemmas = 512

// record remembers a freshly learned theory core.
func (ls *lemmaStore) record(core []theoryLit) {
	if len(ls.lemmas) < maxStoredLemmas {
		ls.lemmas = append(ls.lemmas, append([]theoryLit(nil), core...))
	}
}

// replayLemmas asserts every stored lemma whose atoms are all registered in
// this instance's vocabulary. Lemmas touching unregistered atoms are skipped
// — asserting them would grow the vocabulary and force models to cover
// atoms the formula never mentions.
func (in *instance) replayLemmas() {
	for _, core := range in.store.lemmas {
		covered := true
		for _, l := range core {
			if _, ok := in.atomVar[l.atom.ID()]; !ok {
				covered = false
				break
			}
		}
		if covered {
			in.block(core)
		}
	}
}

// modelLits extracts the theory literals implied by the current SAT model.
func (in *instance) modelLits() []theoryLit {
	out := make([]theoryLit, 0, len(in.atoms))
	for i, t := range in.atoms {
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
