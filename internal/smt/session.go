package smt

import (
	"fmt"

	"spes/internal/fault"
	"spes/internal/fol"
	"spes/internal/sat"
)

// Session is an incremental solving context in the style of MiniSat-under-
// assumptions push/pop: a shared prefix formula is interned and ITE-lifted
// once (Push), after which any number of suffix formulas can be checked in
// conjunction with it (CheckSatUnder).
//
// Encoding is lazy: the first check solves prefix ∧ suffix jointly, exactly
// the way a one-shot CheckSat would — the conjunction is case-split as a
// whole, so cross-simplification between prefix and suffix conjuncts
// (deduplication, complement folding) prunes the same cases one-shot solving
// prunes, and a session whose prefix is never reused costs nothing extra.
// The second check promotes the session: the prefix alone is case-split and
// CNF-encoded into persistent instances, and that check and every later one
// encodes only its suffix on top. Each suffix encodes only its new atoms
// into the persistent atom map, is guarded by a fresh activation literal so
// it can be retired after its check, and reuses everything earlier checks
// paid for: CDCL learned clauses, theory blocking clauses (valid lemmas),
// trichotomy clauses, the congruence engine's registration base, and the
// ITE-lift memo.
//
// Soundness of the reuse: SPES concludes only from Unsat answers, and every
// clause that persists across checks is either part of the prefix, a
// definitional constraint (Tseitin gates, ITE definitions), a theory-valid
// lemma (blocking and trichotomy clauses), or a retired guard's negation —
// so an Unsat under the current guard refutes exactly prefix ∧ suffix.
// Retired suffixes can only weaken Sat answers into extra model rounds,
// never manufacture an Unsat.
//
// A Session is single-goroutine, like the Solver that owns it. Sessions are
// cheap; open one per shared prefix and drop it when the prefix dies.
type Session struct {
	s       *Solver
	iteMemo map[*fol.Term]*fol.Term
	prefix  *fol.Term   // lifted prefix core, its ITE definitions conjoined
	defs    []*fol.Term // suffix ITE definitions, applied lazily per case
	cases   []*instance // persistent prefix encodings; nil until promoted
	store   *lemmaStore // theory lemmas shared by every instance we create
	// defAtoms accumulates the atoms of every suffix ITE definition ever
	// lifted in this session. A later suffix may hit the ITE memo and reuse
	// a definition emitted checks ago, so the definition closure of the
	// current suffix is over-approximated by the whole set; it is part of
	// every check's live-atom set (see modelLits).
	defAtoms map[uint32]bool
	pushed   bool
	checks   int
}

// maxCases caps the case split: a joint first check spends it on the whole
// conjunction like one-shot solving, while a promoted session spends it on
// the prefix's top-level disjunctions and splits each suffix with what
// remains per prefix case — either way a check examines at most maxCases
// solver problems.
const maxCases = 64

// NewSession opens an empty incremental session. Call Push exactly once,
// then CheckSatUnder any number of times.
func (s *Solver) NewSession() *Session {
	s.Stats.Sessions++
	return &Session{
		s:        s,
		iteMemo:  make(map[*fol.Term]*fol.Term),
		store:    newLemmaStore(),
		defAtoms: make(map[uint32]bool),
	}
}

// Push interns and ITE-lifts the shared prefix. It must be called exactly
// once, before any CheckSatUnder. Nothing is encoded yet: the first check
// solves jointly, and the prefix is only encoded for reuse when a second
// check arrives.
func (se *Session) Push(prefix *fol.Term) {
	if se.pushed {
		panic("smt: Push called twice on a session")
	}
	if prefix.Sort != fol.SortBool {
		panic(fmt.Sprintf("smt: Push on non-boolean term %v", prefix))
	}
	se.pushed = true
	s := se.s
	prefix = s.own(prefix)
	core, defs := s.liftIteInto(se.iteMemo, prefix)
	if len(defs) > 0 {
		// Prefix definitions are conjoined into the core, so every prefix
		// case carries them; only suffix definitions go through se.defs.
		core = fol.And(append([]*fol.Term{core}, defs...)...)
	}
	se.prefix = core
}

// CheckSatUnder decides satisfiability of prefix ∧ suffix. The first check
// solves the conjunction jointly (the one-shot path); later checks encode
// the suffix incrementally on top of the promoted prefix, guarded by an
// activation literal, and solve under that assumption; afterwards the guard
// is retired so later suffixes never have to satisfy it. Deadline and
// context cancellation degrade the verdict to Unknown exactly as in
// CheckSat.
func (se *Session) CheckSatUnder(suffix *fol.Term) Result {
	if !se.pushed {
		panic("smt: CheckSatUnder before Push")
	}
	if suffix.Sort != fol.SortBool {
		panic(fmt.Sprintf("smt: CheckSatUnder on non-boolean term %v", suffix))
	}
	s := se.s
	s.Stats.Queries++
	s.Stats.SuffixChecks++
	if se.checks > 0 {
		s.Stats.PrefixReuse++
	}
	se.checks++
	if fault.Inject(fault.SMTPushPop) == fault.Cancel {
		s.Stats.CancelHit++
		return Unknown
	}
	suffix = s.own(suffix)
	core, defs := s.liftIteInto(se.iteMemo, suffix)
	se.defs = append(se.defs, defs...)
	visited := make(map[uint32]bool)
	for _, d := range defs {
		walkAtoms(d, visited, se.defAtoms)
	}
	if se.checks == 1 {
		return se.checkJoint(core, defs)
	}
	if se.cases == nil {
		se.promote()
	}
	if len(se.cases) == 0 {
		return Unsat // the prefix alone is unsatisfiable: every case was ⊥
	}
	// Case-split the suffix the same way promote split the prefix, spending
	// the case budget that is left after the prefix's share. A negated
	// identity or grouping equality is a wide disjunction of per-column
	// violations; handing it to the SAT solver whole makes it enumerate the
	// disjuncts as separate propositional models, which costs the session
	// more model rounds than one-shot solving's joint split would —
	// splitting here restores the near-conjunctive shape each solve sees.
	sCases := splitCases(nnf(core, false), maxCases/len(se.cases))
	sawUnknown := false
	for _, in := range se.cases {
		if in.dead {
			continue // refuted guard-free by an earlier check
		}
		for _, sc := range sCases {
			if sc.Kind == fol.KFalse {
				continue // an unsatisfiable suffix case contributes nothing
			}
			if s.expired() {
				return Unknown
			}
			switch se.checkCase(in, sc) {
			case Sat:
				return Sat
			case Unknown:
				sawUnknown = true
			}
			if in.dead {
				break // every remaining suffix case is refuted the same way
			}
		}
	}
	if sawUnknown {
		return Unknown
	}
	return Unsat
}

// checkJoint solves prefix ∧ suffix as one-shot solving would: the whole
// conjunction is case-split and each case solved on a throwaway instance.
// The suffix's ITE definitions are conjoined here (they are already queued
// on se.defs for the instances a later promotion builds).
func (se *Session) checkJoint(core *fol.Term, defs []*fol.Term) Result {
	s := se.s
	joint := fol.And(append([]*fol.Term{se.prefix, core}, defs...)...)
	sawUnknown := false
	for _, c := range splitCases(nnf(joint, false), maxCases) {
		switch c.Kind {
		case fol.KFalse:
			continue // an unsatisfiable case contributes nothing
		case fol.KTrue:
			return Sat
		}
		if s.expired() {
			return Unknown
		}
		in := s.newCaseInstance(c)
		in.store = se.store
		in.replayLemmas()
		in.replayShared()
		switch s.run(in) {
		case Sat:
			return Sat
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown
	}
	return Unsat
}

// promote case-splits and CNF-encodes the pushed prefix into persistent
// instances. It runs once, on the session's second check — the first
// proof that the prefix is actually shared and worth encoding for reuse.
func (se *Session) promote() {
	s := se.s
	cases := splitCases(nnf(se.prefix, false), maxCases)
	se.cases = make([]*instance, 0, len(cases))
	for _, c := range cases {
		if c.Kind == fol.KFalse {
			continue // an unsatisfiable case contributes nothing
		}
		in := s.newCaseInstance(c)
		in.store = se.store
		in.base = make(map[uint32]bool)
		walkAtoms(c, make(map[uint32]bool), in.base)
		se.cases = append(se.cases, in)
		s.Stats.PrefixEncodes++
	}
}

// Cost estimates the session's retained memory in atom units: the encoded
// vocabulary of every persistent prefix case plus the ITE-definition
// closure. It is the weight a memory-bounded session table charges for
// keeping the session alive — cheap to compute, monotone in the CNF, SAT,
// and congruence state the cases actually pin.
func (se *Session) Cost() int {
	c := 1 + len(se.defAtoms)
	for _, in := range se.cases {
		c += len(in.atoms)
	}
	return c
}

// liveFor builds the live-atom set for one promoted-case check: the prefix
// case's own atoms, the session's ITE-definition closure, the current suffix
// case's atoms, and the trichotomy companions of every live numeric
// equality — the companions carry the disequality reasoning the simplex
// cannot do directly, so dropping them would lose refutations one-shot
// solving finds. Everything else in the vocabulary belongs to retired
// suffixes and is skipped by the theory layer (see modelLits).
func (se *Session) liveFor(in *instance, suffix *fol.Term) map[uint32]bool {
	live := make(map[uint32]bool, len(in.base)+len(se.defAtoms)+16)
	for id := range in.base {
		live[id] = true
	}
	for id := range se.defAtoms {
		live[id] = true
	}
	walkAtoms(suffix, make(map[uint32]bool), live)
	for _, t := range in.atoms {
		if t.Kind == fol.KEq && t.Args[0].Sort == fol.SortNum && live[t.ID()] {
			live[fol.Lt(t.Args[0], t.Args[1]).ID()] = true
			live[fol.Lt(t.Args[1], t.Args[0]).ID()] = true
		}
	}
	return live
}

// checkCase runs one promoted prefix case under the given (lifted, NNF)
// suffix case.
func (se *Session) checkCase(in *instance, suffix *fol.Term) Result {
	s := se.s
	prevAtoms := len(in.atoms)
	// Catch this case up on ITE definitions it may have missed when an
	// earlier check returned before reaching it. Definitions are valid
	// equisatisfiability constraints, so they are asserted unguarded.
	for _, d := range se.defs[in.defsDone:] {
		in.sat.AddClause(in.encode(nnf(d, false)))
	}
	in.defsDone = len(se.defs)
	var assumps []sat.Lit
	switch suffix.Kind {
	case fol.KTrue:
		// No suffix constraint; solve the prefix as-is.
	case fol.KFalse:
		return Unsat
	default:
		g := in.encode(suffix)
		act := sat.MkLit(in.sat.NewVar(), false)
		in.sat.AddClause(act.Not(), g)
		assumps = append(assumps, act)
		// Retire the guard on every exit path so the next suffix is not
		// forced to satisfy this one.
		defer in.sat.AddClause(act.Not())
	}
	in.addTrichotomy()
	in.replayLemmas()
	in.replayShared()
	s.Stats.Atoms += len(in.atoms) - prevAtoms
	in.live = se.liveFor(in, suffix)
	res := s.run(in, assumps...)
	if res == Unsat && len(in.sat.FailedAssumptions()) == 0 {
		// The refutation never touched the suffix guard: the case's clause
		// database is unsatisfiable on its own. Lemmas and retired guards
		// only ever weaken Sat toward extra rounds, never manufacture an
		// Unsat, so the prefix case itself is unsatisfiable — permanently.
		in.dead = true
	}
	return res
}
