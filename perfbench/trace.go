package main

import (
	"time"

	"spes/internal/store"
)

// span is one timed call into a layer. Spans of one pair share its index;
// parent is the enclosing span's index in the tracer (-1 at the top).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Pair   int           `json:"pair"`
}

// tracer keeps one client's spans in memory, properly nested: begin opens
// a child of the innermost open span, end closes it. Not safe for
// concurrent use; a concurrent workload gives each client its own.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string, pair int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: t.cur, Pair: pair})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0)
	t.cur = t.spans[id].Parent
}

// layerTimes sums, per span name, the spans' durations (total) and their
// durations minus the time their child spans cover (self).
type layerTimes struct{ total, self map[string]time.Duration }

func (t *tracer) times() layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	for _, s := range t.spans {
		d := s.End - s.Start
		lt.total[s.Name] += d
		lt.self[s.Name] += d
		if s.Parent >= 0 {
			lt.self[t.spans[s.Parent].Name] -= d
		}
	}
	return lt
}

// solverClock is a verify.ObligationCache that never hits. The verifier
// consults it before every solver call and stores into it after every
// definite answer, so each Lookup-to-Store bracket is one solver call,
// recorded as an "smt" span. A bracket left open is an Unknown answer
// (never stored); it is closed at the next Lookup or at finish.
type solverClock struct {
	tr   *tracer
	pair int
	open int
	// storeHit is set by storeClock when the durable store answered the
	// open bracket's obligation: no solver ran, so the span is renamed.
	storeHit bool
}

func newSolverClock(tr *tracer, pair int) *solverClock {
	return &solverClock{tr: tr, pair: pair, open: -1}
}

func (c *solverClock) Lookup(string) (bool, bool) {
	c.finish()
	c.open = c.tr.begin("smt", c.pair)
	return false, false
}

func (c *solverClock) Store(string, bool) { c.finish() }

// finish closes an open bracket.
func (c *solverClock) finish() {
	if c.open < 0 {
		return
	}
	if c.storeHit {
		c.tr.spans[c.open].Name = "store.answered"
		c.storeHit = false
	}
	c.tr.end(c.open)
	c.open = -1
}

// storeClock wraps the reopened durable store as verify.Config.Store and
// Witnesses, recording a "store" span around every lookup and counting
// lookups and verdict hits. Witness lookups miss by design for pairs that
// were never refuted, so only verdict lookups count toward the hit share.
type storeClock struct {
	st             *store.Store
	solver         *solverClock
	lookups        int
	verdictLookups int
	verdictHits    int
}

func (s *storeClock) LookupVerdict(key string) (bool, bool) {
	id := s.solver.tr.begin("store", s.solver.pair)
	valid, ok := s.st.LookupVerdict(key)
	s.solver.tr.end(id)
	s.lookups++
	s.verdictLookups++
	if ok {
		s.verdictHits++
		s.solver.storeHit = true
	}
	return valid, ok
}

func (s *storeClock) AppendVerdict(key string, valid bool) { s.st.AppendVerdict(key, valid) }

func (s *storeClock) LookupWitness(key string) ([]byte, bool) {
	id := s.solver.tr.begin("store", s.solver.pair)
	data, ok := s.st.LookupWitness(key)
	s.solver.tr.end(id)
	s.lookups++
	return data, ok
}

func (s *storeClock) AppendWitness(key string, data []byte) { s.st.AppendWitness(key, data) }
