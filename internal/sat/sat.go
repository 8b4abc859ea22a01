// Package sat implements a CDCL (conflict-driven clause learning) boolean
// satisfiability solver: two-watched-literal propagation, first-UIP conflict
// analysis, VSIDS-style activity ordering with phase saving, and geometric
// restarts. It is the propositional core underneath the SMT solver in
// internal/smt.
//
// The solver is incremental in the style the lazy SMT loop needs: after
// Solve returns true, callers may add blocking clauses and call Solve again.
package sat

import (
	"fmt"
)

// Lit is a literal: variable index shifted left once, with the low bit set
// for negation. Variables are dense non-negative integers allocated with
// NewVar.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown indicates the solver gave up (budget exceeded).
	Unknown Status = iota
	// Sat indicates a satisfying assignment was found (see Value).
	Sat
	// Unsat indicates the clause set is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause   // problem clauses
	learnts []*clause   // learnt clauses
	watches [][]*clause // watch lists indexed by literal

	assign   []lbool // current assignment by variable
	level    []int   // decision level per variable
	reason   []*clause
	activity []float64
	polarity []bool // saved phase: last assigned sign per variable
	seen     []bool // scratch for analyze

	trail    []Lit
	trailLim []int
	qhead    int

	heap    *varHeap
	varInc  float64
	claInc  float64
	unsat   bool // a top-level conflict was derived
	numConf int64

	// MaxConflicts bounds a single Solve call; 0 means no bound. When the
	// bound trips, Solve returns Unknown.
	MaxConflicts int64
	// Stop, when non-nil, is polled periodically in the conflict loop (every
	// stopPollMask+1 conflicts, so cheap closures stay off the hot path); a
	// true return aborts Solve with Unknown. The SMT layer wires deadline
	// and context checks here so a long CDCL search inside one model round
	// cannot outlive its budget.
	Stop func() bool
}

// stopPollMask throttles Stop polling to every 256th conflict.
const stopPollMask = 255

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.heap = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.push(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// Value returns the assignment of variable v in the most recent model. It is
// meaningful only after Solve returns Sat.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// AddClause adds a clause over the given literals. It returns false if the
// clause makes the problem trivially unsatisfiable at the top level.
// Tautologies are dropped and duplicate literals removed. AddClause must be
// called at decision level zero (i.e., before Solve or between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Dedupe and detect tautologies.
	seen := make(map[Lit]bool, len(lits))
	out := lits[:0:0]
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic("sat: literal over unallocated variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at top level
		case lFalse:
			continue // cannot contribute
		}
		if seen[l.Not()] {
			return true // tautology
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) {
	v := l.Var()
	s.assign[v] = lTrue
	if l.Neg() {
		s.assign[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.polarity[v] = !l.Neg()
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		s.watches[p] = nil
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the first watch is true, the clause is satisfied.
			if s.value(c.lits[0]) == lTrue {
				s.watches[p] = append(s.watches[p], c)
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			s.watches[p] = append(s.watches[p], c)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: restore remaining watches and report.
				s.watches[p] = append(s.watches[p], ws[i+1:]...)
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(c.lits[0], c)
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxIdx := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxIdx].Var()] {
				maxIdx = i
			}
		}
		learnt[1], learnt[maxIdx] = learnt[maxIdx], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e100 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.level[v] = -1
		s.heap.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.heap.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// Solve searches for a satisfying assignment. Solve is restartable: add
// more clauses after any result and call it again; learned clauses,
// variable activities and saved phases carry over.
func (s *Solver) Solve() Status {
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return Unsat
	}
	var conflictsSinceRestart int64
	restartLimit := int64(100)
	startConf := s.numConf

	for {
		confl := s.propagate()
		if confl != nil {
			s.numConf++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.numConf-startConf > s.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if s.Stop != nil && s.numConf&stopPollMask == 0 && s.Stop() {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		if conflictsSinceRestart >= restartLimit {
			conflictsSinceRestart = 0
			restartLimit += restartLimit / 2
			s.cancelUntil(0)
			continue
		}
		v := s.pickBranchVar()
		if v == -1 {
			return Sat // all variables assigned
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.polarity[v]), nil)
	}
}
