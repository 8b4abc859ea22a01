package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"spes/internal/datagen"
	"spes/internal/exec"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
)

// Verdict names as every path reports them (spes.Verdict, engine.Verdict
// and the service's JSON share the strings).
const (
	vEquivalent  = "equivalent"
	vNotProved   = "not-proved"
	vUnsupported = "unsupported"
	vRefuted     = "refuted"
	vError       = "error"
)

// pairLimit is the per-pair time limit. The slowest pair of any workload
// takes under 0.1 s, so a pair that needs this long is stuck, not slow,
// and the limit cannot make a verdict depend on host load. The service and
// engine paths enforce it as their verification deadline; the library
// path has no deadline, so there a pair over the limit counts as failed.
const pairLimit = 5 * time.Second

// refuteBudget is the refutation budget of every path that refutes: up to
// this many small random databases are searched after a failed proof.
const refuteBudget = 64

// referenceDatabases is how many seeded random databases the reference
// executor runs each pair on.
const referenceDatabases = 32

// outcome is one pair's result as the benchmark classifies it.
type outcome struct {
	verdict string          // one of the v* names
	witness *refute.Witness // the counterexample backing a refuted verdict
	failed  string          // non-empty when the pair counts as failed, with the reason
}

// classify turns a path's raw answer into an outcome. errMsg is a parse,
// build, transport or service error ("" for none). A corpus pair tagged
// "unsupported:" whose queries fail to parse or build has the expected
// outcome, reported as unsupported, so a later fix that answers such
// pairs with an Unsupported verdict changes nothing here. Every other
// error fails the pair, and so does a verification that timed out or took
// longer than pairLimit.
func classify(p pair, verdict, errMsg string, timedOut bool, took time.Duration) outcome {
	if errMsg != "" {
		if p.Unsupported {
			return outcome{verdict: vUnsupported}
		}
		return outcome{verdict: vError, failed: errMsg}
	}
	o := outcome{verdict: verdict}
	if timedOut || took > pairLimit {
		o.failed = "timeout"
	}
	return o
}

// encodeWitness renders a witness for the verdict digest (nil for none).
func encodeWitness(w *refute.Witness) []byte {
	if w == nil {
		return nil
	}
	b, err := w.Encode()
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return b
}

// separatedByReference is the independent ground truth the verdicts are
// checked against: for each pair, whether internal/exec finds one of
// referenceDatabases seeded internal/datagen databases on which the two
// queries' output bags differ. The seeds derive from the pair's content
// under a fixed salt — unrelated to the refuter's, which derive from the
// pair's plan fingerprint — and not from the run's seed, so every run
// checks a pair against the same databases and the shares built on the
// reference do not move with the pair order. Pairs that fail to build are
// never separated. The result is index-aligned with pairs; each distinct
// pair is executed once.
func separatedByReference(pairs []pair) []bool {
	cats := catalogs()
	byKey := map[string]bool{}
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		k := p.key()
		v, ok := byKey[k]
		if !ok {
			v = separates(cats[p.Cat], p, k)
			byKey[k] = v
		}
		out[i] = v
	}
	return out
}

func separates(cat *schema.Catalog, p pair, key string) bool {
	q1, q2, err := buildPair(cat, p)
	if err != nil {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench reference:%s", key)
	gen := datagen.NewGenerator(int64(h.Sum64()>>1), datagen.Options{})
	for i := 0; i < referenceDatabases; i++ {
		db := gen.Database(cat)
		out1, err1 := exec.Run(db, q1)
		out2, err2 := exec.Run(db, q2)
		if err1 == nil && err2 == nil && !exec.BagEqual(out1, out2) {
			return true
		}
	}
	return false
}

func buildPair(cat *schema.Catalog, p pair) (plan.Node, plan.Node, error) {
	b := plan.NewBuilder(cat)
	q1, err := b.BuildSQL(p.SQL1)
	if err != nil {
		return nil, nil, err
	}
	q2, err := b.BuildSQL(p.SQL2)
	return q1, q2, err
}

// tally is what a workload's outcomes add up to.
type tally struct {
	attempted, failed     int
	equivalentByBuild     int // pairs equivalent by construction
	proved                int // ... of which answered Equivalent
	separated             int // pairs the reference separates
	refutedSeparated      int // ... of which answered Refuted
	verdicts              map[string]int
	violations            []string
	witnessReplays        int
	witnessReplayDuration time.Duration
}

// check verifies one pass's outcomes against the reference (sep, from
// separatedByReference) and the pairs' construction, and counts the
// shares. A violation is a wrong verdict: Equivalent on a pair the
// reference separates, Refuted on a pair equivalent by construction, or a
// Refuted verdict whose witness does not replay. A witness is replayed
// once per pair position, the first time it is seen; later passes must
// reproduce it byte for byte, which the verdict digest checks.
func (t *tally) check(pairs []pair, outs []outcome, sep, replayed []bool) {
	if t.verdicts == nil {
		t.verdicts = map[string]int{}
	}
	cats := catalogs()
	for i, p := range pairs {
		o := outs[i]
		t.attempted++
		t.verdicts[o.verdict]++
		if o.failed != "" {
			t.failed++
		}
		sep := sep[i]
		if p.Equivalent {
			t.equivalentByBuild++
			if o.verdict == vEquivalent {
				t.proved++
			}
		}
		if sep {
			t.separated++
			if o.verdict == vRefuted {
				t.refutedSeparated++
			}
		}
		switch o.verdict {
		case vEquivalent:
			if sep {
				t.violations = append(t.violations, fmt.Sprintf("%s: equivalent, but the reference executor separates the queries", p.ID))
			}
		case vRefuted:
			if p.Equivalent {
				t.violations = append(t.violations, fmt.Sprintf("%s: refuted, but the pair is equivalent by construction", p.ID))
			}
			if replayed[i] {
				continue
			}
			replayed[i] = true
			if err := t.replay(cats[p.Cat], p, o.witness); err != nil {
				t.violations = append(t.violations, fmt.Sprintf("%s: refuted, but its witness does not replay: %v", p.ID, err))
			}
		}
	}
}

func (t *tally) replay(cat *schema.Catalog, p pair, w *refute.Witness) error {
	if w == nil {
		return fmt.Errorf("no witness")
	}
	q1, q2, err := buildPair(cat, p)
	if err != nil {
		return err
	}
	start := time.Now()
	err = w.Replay(q1, q2)
	t.witnessReplayDuration += time.Since(start)
	t.witnessReplays++
	return err
}
