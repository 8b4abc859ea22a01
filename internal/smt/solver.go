package smt

import (
	"context"
	"fmt"
	"time"

	"spes/internal/fault"
	"spes/internal/fol"
	"spes/internal/sat"
)

// Result is a three-valued satisfiability verdict.
type Result int

const (
	// Unknown means the solver could not decide within its budget.
	Unknown Result = iota
	// Sat means the formula has a model (in the solver's theory: linear
	// rational arithmetic with uninterpreted functions).
	Sat
	// Unsat means the formula has no model. Unsat verdicts are sound for
	// any refinement of the theory (integers, real multiplication, concrete
	// function meanings).
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats accumulates solver counters across queries. Stats holds only value
// fields, so a plain struct copy is a consistent snapshot. Like the Solver
// itself, the counters are owned by one goroutine — copy them on the
// owning goroutine before handing the numbers to another.
type Stats struct {
	Queries      int
	ModelRounds  int   // propositional models examined across queries
	TheoryConfls int   // theory conflicts (blocking clauses learned)
	Atoms        int   // theory atoms across queries
	MaxRoundsHit int   // queries that exhausted the model budget
	DeadlineHit  int   // checks aborted by the wall-clock deadline
	CancelHit    int   // checks aborted by context cancellation
	CoreChecks   int64 // theory checks spent minimizing cores
}

// Solver checks satisfiability and validity of quantifier-free fol formulas.
// A Solver is not safe for concurrent use; each goroutine should own one.
// The zero value is not usable; call New.
type Solver struct {
	// MaxModelRounds bounds the number of propositional models examined per
	// CheckSat call before giving up with Unknown.
	MaxModelRounds int
	// MaxSATConflicts bounds the CDCL search per Solve call.
	MaxSATConflicts int64
	// TheoryBudget bounds equality-propagation rounds per theory check.
	TheoryBudget int
	// Deadline, when non-zero, aborts CheckSat with Unknown once the
	// wall clock passes it. The check sits in the model-round loop, so a
	// pathological query degrades to Unknown (sound: Unknown never proves
	// anything) instead of stalling the caller. Set it before each query;
	// the zero value disables the deadline.
	Deadline time.Time
	// Ctx, when non-nil, aborts CheckSat with Unknown once the context is
	// cancelled. It is polled in the same model-round loop as Deadline and
	// carries the same soundness guarantee: cancellation can only degrade a
	// verdict to Unknown, never invent one. The server plumbs per-request
	// contexts here so a dropped client or a draining shutdown stops
	// burning solver time.
	Ctx context.Context
	// Interner is the interner the solver works in. CheckSat interns its
	// input into it, so the whole pipeline (ITE lifting, NNF, case
	// splitting, CNF encoding, congruence closure, simplex) operates on one
	// DAG and keys its maps on dense term IDs instead of canonical strings.
	// Callers set it to the interner they build in (verify, normalize and
	// equitas all do), which makes entry interning a pointer check; when
	// nil, the solver adopts the interner of the first formula it is given.
	// A formula from any other interner is copied in structurally, which
	// cannot change a verdict.
	Interner *fol.Interner

	Stats Stats

	iteCounter int
	tc         *theoryCache

	// Coarse-tick cache for aborted: the wall clock is consulted only every
	// abortPollEvery-th poll, and a tripped deadline latches until the
	// deadline itself changes.
	abortTick     int
	abortExpired  bool
	abortDeadline time.Time
}

// New returns a solver with defaults suitable for SPES workloads.
func New() *Solver {
	return &Solver{
		MaxModelRounds:  20000,
		MaxSATConflicts: 500000,
		TheoryBudget:    60,
	}
}

// maxCases caps the case split: a check examines at most maxCases solver
// problems.
const maxCases = 64

// CheckSat decides satisfiability of f, which must be boolean-sorted. It
// interns f, lifts numeric ITEs into fresh variables with defining
// constraints, distributes top-level disjunctions into at most maxCases
// cases, and solves each case on a fresh instance: f is satisfiable iff
// some case is. Theory lemmas learned in one case are replayed into every
// later case whose vocabulary covers them. Deadline and context
// cancellation degrade the verdict to Unknown.
func (s *Solver) CheckSat(f *fol.Term) Result {
	if f.Sort != fol.SortBool {
		panic(fmt.Sprintf("smt: CheckSat on non-boolean term %v", f))
	}
	s.Stats.Queries++
	store := new(lemmaStore)
	sawUnknown := false
	for _, c := range splitCases(nnf(s.liftIte(s.own(f)), false), maxCases) {
		switch c.Kind {
		case fol.KFalse:
			continue // an unsatisfiable case contributes nothing
		case fol.KTrue:
			return Sat
		}
		if s.expired() {
			return Unknown
		}
		switch s.run(s.newCaseInstance(c, store)) {
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

// own interns f into the solver's interner — adopting f's own interner
// when the solver has none yet — and keeps the ID-keyed theory cache bound
// to that interner.
func (s *Solver) own(f *fol.Term) *fol.Term {
	if s.Interner == nil {
		s.Interner = f.Owner()
	}
	if s.tc == nil || s.tc.in != s.Interner {
		s.tc = newTheoryCache(s.Interner)
	}
	return s.Interner.Intern(f)
}

// nnf pushes negations through the boolean connectives (De Morgan),
// leaving atoms, Iff, and everything else intact.
func nnf(f *fol.Term, neg bool) *fol.Term {
	switch f.Kind {
	case fol.KNot:
		return nnf(f.Args[0], !neg)
	case fol.KAnd, fol.KOr:
		args := make([]*fol.Term, len(f.Args))
		for i, a := range f.Args {
			args[i] = nnf(a, neg)
		}
		if (f.Kind == fol.KAnd) != neg {
			return fol.And(args...)
		}
		return fol.Or(args...)
	}
	if neg {
		return fol.Not(f)
	}
	return f
}

// splitCases distributes top-level disjunctions under the root conjunction
// into separate cases (f is satisfiable iff some case is), stopping at
// limit cases.
func splitCases(f *fol.Term, limit int) []*fol.Term {
	cases := []*fol.Term{f}
	for {
		split := false
		var next []*fol.Term
		for _, c := range cases {
			or := findTopOr(c)
			if or == nil || len(cases)+len(next)+len(or.Args) > limit {
				next = append(next, c)
				continue
			}
			split = true
			for _, alt := range or.Args {
				next = append(next, replaceConjunct(c, or, alt))
			}
		}
		cases = next
		if !split {
			return cases
		}
	}
}

// findTopOr returns a disjunction conjoined at the top of f, or nil.
func findTopOr(f *fol.Term) *fol.Term {
	if f.Kind == fol.KOr {
		return f
	}
	if f.Kind != fol.KAnd {
		return nil
	}
	for _, a := range f.Args {
		if a.Kind == fol.KOr {
			return a
		}
	}
	return nil
}

// replaceConjunct rebuilds f with the given top-level conjunct replaced.
func replaceConjunct(f, old, repl *fol.Term) *fol.Term {
	if f == old {
		return repl
	}
	args := make([]*fol.Term, 0, len(f.Args))
	for _, a := range f.Args {
		if a == old {
			args = append(args, repl)
		} else {
			args = append(args, a)
		}
	}
	return fol.And(args...)
}

// newCaseInstance builds the per-case solver state: a CDCL instance wired
// to the solver's budgets and abort hook, a congruence engine, the encoded
// case with its trichotomy clauses, and every stored lemma the case's
// vocabulary covers. Cores the instance learns are recorded in store for
// the check's later cases.
func (s *Solver) newCaseInstance(c *fol.Term, store *lemmaStore) *instance {
	in := newInstance()
	in.sat.MaxConflicts = s.MaxSATConflicts
	in.sat.Stop = s.aborted
	in.theory = newEUF()
	in.store = store
	in.sat.AddClause(in.encode(c))
	in.addTrichotomy()
	in.replayLemmas()
	s.Stats.Atoms += len(in.atoms)
	return in
}

// expired reports whether the wall-clock deadline has passed or the
// context has been cancelled, counting each abort in Stats.DeadlineHit or
// Stats.CancelHit.
func (s *Solver) expired() bool {
	if s.Ctx != nil && s.Ctx.Err() != nil {
		s.Stats.CancelHit++
		return true
	}
	if s.Deadline.IsZero() || time.Now().Before(s.Deadline) {
		return false
	}
	s.Stats.DeadlineHit++
	return true
}

// abortPollEvery throttles the wall-clock read in aborted: the clock is
// consulted on the first poll after a deadline change and then every Nth
// poll. Combined with the CDCL loop's own 256-conflict Stop throttle, the
// syscall-backed time.Now runs once per ~4096 conflicts instead of once per
// 256, while context cancellation (a cheap channel check) is still seen on
// every poll.
const abortPollEvery = 16

// aborted is expired without the stats attribution. It is polled from the
// CDCL conflict loop (sat.Solver.Stop), where counting every poll would
// inflate the abort counters; run attributes the abort once, after Solve
// returns Unknown. A tripped deadline latches until the deadline changes,
// so post-expiry polls never touch the clock again.
func (s *Solver) aborted() bool {
	if s.Ctx != nil && s.Ctx.Err() != nil {
		return true
	}
	if s.Deadline.IsZero() {
		return false
	}
	if !s.Deadline.Equal(s.abortDeadline) {
		s.abortDeadline = s.Deadline
		s.abortExpired = false
		s.abortTick = abortPollEvery - 1
	}
	if s.abortExpired {
		return true
	}
	s.abortTick++
	if s.abortTick < abortPollEvery {
		return false
	}
	s.abortTick = 0
	if !time.Now().Before(s.Deadline) {
		s.abortExpired = true
		return true
	}
	return false
}

// run drives the lazy DPLL(T) loop on an encoded instance: each
// propositional model is checked against the theories, and each theory
// conflict is blocked by a minimized core until the SAT core runs out of
// models or the theories accept one.
func (s *Solver) run(in *instance) Result {
	for round := 0; round < s.MaxModelRounds; round++ {
		if s.expired() {
			return Unknown
		}
		if fault.Inject(fault.SMTModelRound) == fault.Cancel {
			s.Stats.CancelHit++
			return Unknown
		}
		switch in.sat.Solve() {
		case sat.Unsat:
			return Unsat
		case sat.Unknown:
			// Unknown is either the conflict budget or a Stop-triggered
			// abort; attribute deadline/cancellation to the right counter.
			s.expired()
			return Unknown
		}
		// Counted here, not at the solve call: ModelRounds is the number of
		// propositional models the theory layer examined, so a solve refuted
		// inside the SAT core (no model ever produced) costs zero rounds.
		s.Stats.ModelRounds++
		lits := in.modelLits()
		// Theory reasoning never crosses disjoint variable sets (both
		// theories are over shared variables only), so the model's
		// literals split into independent components: the conjunction is
		// consistent iff every component is, and a conflict localizes to
		// one small component — which keeps core minimization cheap.
		comps := components(lits)
		consistent := true
		uncertain := false
		var conflictComp []theoryLit
		var expl []int
		for _, comp := range comps {
			ok, certain, e := theoryCheckExplain(in.theory, comp, s.TheoryBudget, s.tc)
			if !certain {
				uncertain = true
				break
			}
			if !ok {
				consistent = false
				conflictComp, expl = comp, e
				break
			}
		}
		if uncertain {
			return Unknown
		}
		if consistent {
			return Sat
		}
		s.Stats.TheoryConfls++
		// An arithmetic explanation gives a small starting core; verify it
		// and minimize from there, falling back to the whole component.
		start := conflictComp
		if expl != nil {
			trial := make([]theoryLit, len(expl))
			for i, idx := range expl {
				trial[i] = conflictComp[idx]
			}
			s.Stats.CoreChecks++
			if ok, certain := theoryCheck(in.theory, trial, s.TheoryBudget, s.tc); certain && !ok {
				start = trial
			}
		}
		core := s.minimizeCore(in.theory, start)
		in.block(core)
		in.store.record(core)
	}
	s.Stats.MaxRoundsHit++
	return Unknown
}

// components partitions literals into variable-connected components.
func components(lits []theoryLit) [][]theoryLit {
	parent := make([]int, len(lits))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := make(map[string]int)
	for i, l := range lits {
		vars := l.vars
		if vars == nil {
			vars = fol.Vars(l.atom)
		}
		for _, v := range vars {
			if j, ok := owner[v.Name]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[v.Name] = i
			}
		}
	}
	groups := make(map[int][]theoryLit)
	var order []int
	for i, l := range lits {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], l)
	}
	out := make([][]theoryLit, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// minimizeCore shrinks an inconsistent literal set with chunked deletion
// (try dropping halves, then quarters, ... then singles), yielding strong
// blocking clauses in O(k·log n) theory checks for a core of size k.
func (s *Solver) minimizeCore(e *euf, lits []theoryLit) []theoryLit {
	core := append([]theoryLit(nil), lits...)
	inconsistent := func(trial []theoryLit) bool {
		s.Stats.CoreChecks++
		consistent, certain := theoryCheck(e, trial, s.TheoryBudget, s.tc)
		return certain && !consistent
	}
	for chunk := len(core) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(core); {
			trial := make([]theoryLit, 0, len(core)-chunk)
			trial = append(trial, core[:i]...)
			trial = append(trial, core[i+chunk:]...)
			if inconsistent(trial) {
				core = trial
			} else {
				i += chunk
			}
		}
	}
	return core
}

// Valid reports whether f holds in every model. Only a definite refutation
// of ¬f counts; Unknown maps to false (unproven), preserving SPES's
// soundness contract.
func (s *Solver) Valid(f *fol.Term) bool {
	return s.CheckSat(fol.Not(f)) == Unsat
}

// liftIte removes numeric if-then-else terms by introducing fresh variables
// with defining constraints, producing an equisatisfiable formula with the
// defining constraints conjoined on top. The input is interned, so the memo
// of replaced ITE nodes keys on pointers: structurally equal occurrences
// are the same node and share one fresh variable.
func (s *Solver) liftIte(f *fol.Term) *fol.Term {
	memo := make(map[*fol.Term]*fol.Term)
	var defs []*fol.Term
	var rec func(t *fol.Term) *fol.Term
	rec = func(t *fol.Term) *fol.Term {
		if len(t.Args) == 0 {
			return t
		}
		args := make([]*fol.Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = rec(a)
			if args[i] != a {
				changed = true
			}
		}
		cur := t
		if changed {
			cur = t.WithArgs(args)
		}
		if cur.Kind == fol.KIte && cur.Sort == fol.SortNum {
			if v, ok := memo[cur]; ok {
				return v
			}
			s.iteCounter++
			v := s.Interner.NumVar(fmt.Sprintf("$ite%d", s.iteCounter))
			c, then, els := cur.Args[0], cur.Args[1], cur.Args[2]
			defs = append(defs,
				fol.Implies(c, fol.Eq(v, then)),
				fol.Implies(fol.Not(c), fol.Eq(v, els)))
			memo[cur] = v
			return v
		}
		return cur
	}
	g := rec(f)
	if len(defs) == 0 {
		return g
	}
	return fol.And(append([]*fol.Term{g}, defs...)...)
}
