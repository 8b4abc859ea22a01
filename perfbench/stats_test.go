package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"spes"
	"spes/internal/refute"
)

func TestPercentileNeedsTenSamplesBeyondP99(t *testing.T) {
	for _, tc := range []struct {
		n     int
		ready bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {1500, true}} {
		if got := tailReady(tc.n, 0.99); got != tc.ready {
			t.Errorf("tailReady(%d, 0.99) = %v, want %v", tc.n, got, tc.ready)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // unsorted on purpose
	}
	v, beyond := percentile(samples, 0.99)
	if v != 990 || beyond != minBeyond {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with %d", v, beyond, minBeyond)
	}
	if samples[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if v, _ := percentile(samples, 0.50); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
}

func TestLatencyBlocksCloseOnlyWhenFull(t *testing.T) {
	r := &runner{pairs: make([]pair, 300), sep: make([]bool, 300), replayed: make([]bool, 300)}
	r.block = make([]float64, 0, 1000+len(r.pairs))
	for k := 1; k <= 4; k++ {
		lat := make([]float64, len(r.pairs))
		for i := range lat {
			lat[i] = float64(k)
		}
		r.addPass(&pass{latency: lat, outs: make([]outcome, len(r.pairs))})
		if full := r.blockFull(); full != (k == 4) {
			t.Fatalf("after pass %d (%d samples) blockFull = %v", k, k*300, full)
		}
	}
	if len(r.p99s) != 1 || r.p99s[0] != 4 || r.p50s[0] != 2 {
		t.Errorf("block percentiles p50=%v p99=%v, want [2] and [4]", r.p50s, r.p99s)
	}
}

func TestShareAbsentWhenDenominatorIsZero(t *testing.T) {
	if v, ok := share(0, 0); ok {
		t.Errorf("share(0, 0) = %v, present; want absent", v)
	}
	if v, ok := share(3, 4); !ok || v != 0.75 {
		t.Errorf("share(3, 4) = %v, %v; want 0.75", v, ok)
	}
	// A run with no refutable pair reports no refuted_share at all — not
	// a vacuous 1.0 — and report fails the run for it.
	r := &runner{passes: []*pass{{wall: 1e9}}, pairs: make([]pair, 4)}
	r.tally = tally{attempted: 4, equivalentByBuild: 4, proved: 4}
	m := r.endToEnd()
	if v, ok := m["refuted_share"]; ok {
		t.Errorf("refuted_share = %v with no separated pair; want absent", v)
	}
	if m["proved_share"] != 1 || m["ok_share"] != 1 {
		t.Errorf("proved_share %v, ok_share %v; want 1 and 1", m["proved_share"], m["ok_share"])
	}
}

func TestVerdictDigestIsStableAndSensitive(t *testing.T) {
	w := &refute.Witness{Seed: 7, Out1: []string{"(1)"}, Out2: []string{}}
	ids := []string{"a", "b"}
	outs := []outcome{{verdict: vEquivalent}, {verdict: vRefuted, witness: w}}
	d := verdictDigest(ids, outs)
	if again := verdictDigest([]string{"a", "b"}, []outcome{{verdict: vEquivalent}, {verdict: vRefuted, witness: &refute.Witness{Seed: 7, Out1: []string{"(1)"}, Out2: []string{}}}}); again != d {
		t.Errorf("equal verdicts digest to %s and %s", d, again)
	}
	// The same verdicts in another list order (another seed's) digest the
	// same.
	if reordered := verdictDigest([]string{"b", "a"}, []outcome{outs[1], outs[0]}); reordered != d {
		t.Error("reordering the pair list changed the digest")
	}
	// Failure reasons and timing are not verdicts: they must not move it.
	if other := verdictDigest(ids, []outcome{{verdict: vEquivalent, failed: "timeout"}, outs[1]}); other != d {
		t.Error("a failure reason changed the verdict digest")
	}
	for name, changed := range map[string]string{
		"verdict": verdictDigest(ids, []outcome{{verdict: vNotProved}, outs[1]}),
		"witness": verdictDigest(ids, []outcome{outs[0], {verdict: vRefuted, witness: &refute.Witness{Seed: 8}}}),
		"pairing": verdictDigest(ids, []outcome{outs[1], outs[0]}),
		"framing": verdictDigest([]string{"ae", "b"}, []outcome{{verdict: "quivalent"}, outs[1]}),
	} {
		if changed == d {
			t.Errorf("changing the %s left the digest at %s", name, d)
		}
	}
}

func TestUnsupportedTaggedErrorsAreExpected(t *testing.T) {
	tagged := pair{ID: "t", Unsupported: true}
	untagged := pair{ID: "u"}
	if o := classify(tagged, "", "sql: CAST not supported", false, 0); o.verdict != vUnsupported || o.failed != "" {
		t.Errorf("tagged pair with a parse error = %+v; want unsupported, not failed", o)
	}
	if o := classify(tagged, vUnsupported, "", false, 0); o.verdict != vUnsupported || o.failed != "" {
		t.Errorf("tagged pair with an Unsupported verdict = %+v; want unsupported, not failed", o)
	}
	if o := classify(untagged, "", "sql: unexpected token", false, 0); o.verdict != vError || o.failed == "" {
		t.Errorf("untagged pair with a parse error = %+v; want a failed error", o)
	}
	if o := classify(untagged, vEquivalent, "", true, 0); o.failed == "" {
		t.Error("a timed-out pair did not fail")
	}
	if o := classify(untagged, vEquivalent, "", false, pairLimit+1); o.failed == "" {
		t.Error("a pair over the per-pair limit did not fail")
	}

	// Every Calcite pair the library answers with an error is tagged
	// unsupported in the corpus, so calcite-cold's ok_share counts none of
	// them as failed.
	cats := catalogs()
	errs := 0
	for _, p := range calcitePairs() {
		if _, err := spes.VerifyWithOptions(cats[p.Cat], p.SQL1, p.SQL2, spes.Options{}); err != nil {
			errs++
			if !p.Unsupported {
				t.Errorf("%s: library error %v on a pair not tagged unsupported", p.ID, err)
			}
		}
	}
	if errs == 0 {
		t.Error("no Calcite pair returned an error; the classification is untested")
	}
}

func TestUnwrapStripsIdentityWrappers(t *testing.T) {
	core := "SELECT TXN_ID FROM TXN WHERE AMOUNT > 5"
	if got := unwrap("SELECT * FROM (SELECT * FROM (" + core + ") W0) W1"); got != core {
		t.Errorf("unwrap = %q, want %q", got, core)
	}
	if got := unwrap(core); got != core {
		t.Errorf("unwrap of a bare query = %q", got)
	}
}

func TestWorkloadListsAreFixedAndOrderedBySeed(t *testing.T) {
	for _, wl := range workloads {
		if wl.name == "restart-warm" {
			continue // the union of the others; covered through them
		}
		a, b, c := wl.pairs(1), wl.pairs(1), wl.pairs(2)
		if len(a) == 0 || len(a) != len(c) {
			t.Fatalf("%s: %d pairs on seed 1, %d on seed 2", wl.name, len(a), len(c))
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seed 1 gave two different lists", wl.name)
			}
			same = same && a[i] == c[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 gave the same order", wl.name)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json's workload and
// metric lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s; the program runs %s", got, want)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		want []metricSpec
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.list) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.list), len(c.want))
			continue
		}
		for i, m := range c.list {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the program's %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
