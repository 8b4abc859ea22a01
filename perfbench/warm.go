package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spes/internal/engine"
	"spes/internal/schema"
	"spes/internal/store"
)

// warmSystem is the engine path as spes-serve -store runs it: one
// long-lived engine.Engine per catalog over that catalog's durable store
// directory, with lemma sharing and the refutation budget on. Its set-up
// is the store reopen — log replay included — and the engine boot.
type warmSystem struct {
	cats    [numCatalogs]*schema.Catalog
	stores  [numCatalogs]*store.Store
	engines [numCatalogs]*engine.Engine
	openDur time.Duration // time spent in store.OpenDir
}

// storeDirs are the per-catalog store directories under dir.
func storeDirs(dir string) [numCatalogs]string {
	var out [numCatalogs]string
	for c := catalogID(0); c < numCatalogs; c++ {
		out[c] = filepath.Join(dir, c.String())
	}
	return out
}

func newWarm(dirs [numCatalogs]string) (*warmSystem, error) {
	s := &warmSystem{cats: catalogs()}
	for c := range dirs {
		start := time.Now()
		st, err := store.OpenDir(dirs[c])
		s.openDur += time.Since(start)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores[c] = st
		s.engines[c] = engine.NewEngine(s.cats[c], engine.Options{
			Workers:      1,
			Timeout:      pairLimit,
			Store:        st,
			ShareLemmas:  true,
			RefuteBudget: refuteBudget,
		})
	}
	return s, nil
}

func (s *warmSystem) verify(p pair) outcome {
	start := time.Now()
	r := s.engines[p.Cat].VerifyPair(context.Background(), engine.Pair{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2})
	took := time.Since(start)
	// The engine reports a query that fails to parse or build as a
	// not-proved verdict with a "build: " reason; that is an error here,
	// as it is on the library path.
	if r.Verdict == engine.NotProved && strings.HasPrefix(r.Reason, "build: ") {
		return classify(p, "", r.Reason, false, took)
	}
	o := classify(p, r.Verdict.String(), "", r.TimedOut || r.Cancelled || r.WatchdogAbort, took)
	if r.Panicked {
		o.failed = "internal_error"
	}
	o.witness = r.Witness
	return o
}

// stats sums the engines' lifetime counters that the traced run reports.
func (s *warmSystem) stats() engine.StatsSnapshot {
	var t engine.StatsSnapshot
	for _, e := range s.engines {
		if e == nil {
			continue
		}
		st := e.Stats()
		t.Pairs += st.Pairs
		t.SolverQueries += st.SolverQueries
		t.ObligationHits += st.ObligationHits
		t.ObligationMisses += st.ObligationMisses
		t.NormHits += st.NormHits
		t.NormMisses += st.NormMisses
		t.TermNodes += st.TermNodes
	}
	return t
}

// logBytes is the durable logs' total size.
func (s *warmSystem) logBytes() int64 {
	var n int64
	for _, st := range s.stores {
		if st != nil {
			n += st.Snapshot().Bytes
		}
	}
	return n
}

// close closes every store, flushing its write-behind queue.
func (s *warmSystem) close() error {
	var first error
	for _, st := range s.stores {
		if st == nil {
			continue
		}
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// restartPairs is the restart-warm list: the distinct pairs of the other
// three workloads, each under its own catalog, with IDs prefixed by the
// workload they come from.
func restartPairs() []pair {
	var all []pair
	for _, src := range []struct {
		prefix string
		pairs  []pair
	}{
		{"calcite/", calcitePairs()},
		{"routed/", routedPairs(corpusSeed)},
		{"overlap/", overlapPairs()},
	} {
		for _, p := range src.pairs {
			p.ID = src.prefix + p.ID
			all = append(all, p)
		}
	}
	return distinct(all)
}

// prime runs the untimed cold pass that fills fresh store directories
// under dir, and returns its outcomes.
func prime(dir string, pairs []pair) ([]outcome, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	dirs := storeDirs(dir)
	s, err := newWarm(dirs)
	if err != nil {
		return nil, err
	}
	ps := closedLoop(pairs, 1, func(i int) outcome { return s.verify(pairs[i]) })
	if err := s.close(); err != nil {
		return nil, err
	}
	return ps.outs, nil
}
