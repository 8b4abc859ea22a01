package verify

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"spes/internal/fault"
	"spes/internal/plan"
	"spes/internal/refute"
)

// witnessMap is a WitnessStore test double: an in-memory first-wins map
// that records every append.
type witnessMap struct {
	m       map[string][]byte
	appends []string
}

func newWitnessMap() *witnessMap { return &witnessMap{m: map[string][]byte{}} }

func (s *witnessMap) LookupWitness(key string) ([]byte, bool) {
	data, ok := s.m[key]
	return data, ok
}

func (s *witnessMap) AppendWitness(key string, data []byte) {
	s.appends = append(s.appends, key)
	if _, ok := s.m[key]; !ok {
		s.m[key] = data
	}
}

const (
	// exhaustingSQL1/2 differ, but datagen draws integers from [0, 16), so
	// no generated database separates them: every search exhausts.
	exhaustingSQL1 = "SELECT EMP_ID FROM EMP WHERE SALARY > 100"
	exhaustingSQL2 = "SELECT EMP_ID FROM EMP WHERE SALARY > 200"
	// refutableSQL1/2 differ on SALARY = 10, which searches find.
	refutableSQL1 = "SELECT SALARY FROM EMP WHERE SALARY > 10"
	refutableSQL2 = "SELECT SALARY FROM EMP WHERE SALARY >= 10"
)

func buildPlans(t *testing.T, sql1, sql2 string) (plan.Node, plan.Node) {
	t.Helper()
	b := plan.NewBuilder(testCatalog(t))
	q1, err := b.BuildSQL(sql1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := b.BuildSQL(sql2)
	if err != nil {
		t.Fatal(err)
	}
	return q1, q2
}

// refuteWith runs a failed proof and the refutation pass on one fresh
// Verifier, the way the engine does.
func refuteWith(t *testing.T, cfg Config, q1, q2 plan.Node) (*refute.Witness, Stats) {
	t.Helper()
	v := NewWithConfig(cfg)
	if out := v.Check(q1, q2); out.Full {
		t.Fatal("an inequivalent pair was proved equivalent")
	}
	w := v.Refute(q1, q2)
	return w, v.Stats()
}

// TestExhaustedRecordRoundTrip pins the record's life cycle: a search that
// runs its whole budget without a witness leaves exactly one record under
// refute.ExhaustedKey, and the next Verifier answers the pair from it with
// no search rounds, counted as a search and an exhausted hit.
func TestExhaustedRecordRoundTrip(t *testing.T) {
	q1, q2 := buildPlans(t, exhaustingSQL1, exhaustingSQL2)
	ws := newWitnessMap()
	cfg := Config{RefuteBudget: 64, Witnesses: ws}

	w, st := refuteWith(t, cfg, q1, q2)
	if w != nil || st.RefuteRounds != 64 || st.ExhaustedHits != 0 {
		t.Fatalf("cold: witness %v, stats %+v; want no witness after 64 rounds", w, st)
	}
	key := refute.ExhaustedKey(plan.PairKey(q1, q2), q1, q2, refute.Options{Budget: 64})
	if len(ws.appends) != 1 || ws.appends[0] != key || string(ws.m[key]) != refute.ExhaustedRecord {
		t.Fatalf("appends %q, want one exhausted record under %q", ws.appends, key)
	}

	w, st = refuteWith(t, cfg, q1, q2)
	if w != nil || st.RefuteSearches != 1 || st.RefuteRounds != 0 || st.ExhaustedHits != 1 {
		t.Fatalf("warm: witness %v, stats %+v; want an exhausted hit with 0 rounds", w, st)
	}
	if len(ws.appends) != 1 {
		t.Fatalf("warm run appended again: %q", ws.appends)
	}
}

// TestAbortedSearchWritesNoRecord: a search stopped by a deadline, a
// cancelled context, or an injected refute-search cancel or panic says
// nothing about the pair, so it must leave no record. The same pair
// searched to the end does leave one, so the pair is a live probe.
func TestAbortedSearchWritesNoRecord(t *testing.T) {
	if fault.Enabled() {
		t.Skip("fault registry already armed")
	}
	q1, q2 := buildPlans(t, exhaustingSQL1, exhaustingSQL2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Deadline and cancellation: Check would see them first and make
	// Refute a no-op, so the search is entered directly.
	for name, cfg := range map[string]Config{
		"deadline": {Deadline: time.Now().Add(-time.Second)},
		"cancel":   {Ctx: cancelled},
	} {
		ws := newWitnessMap()
		cfg.RefuteBudget, cfg.Witnesses = 64, ws
		v := NewWithConfig(cfg)
		if w := v.Refute(q1, q2); w != nil || len(ws.appends) != 0 {
			t.Errorf("%s: witness %v, appends %q; want neither", name, w, ws.appends)
		}
	}

	for _, kind := range []fault.Kind{fault.KindCancel, fault.KindPanic} {
		ws := newWitnessMap()
		if err := fault.Enable(fault.Config{Seed: 1, PerMille: 1000, Sites: []fault.Site{fault.RefuteSearch}, Kinds: []fault.Kind{kind}}); err != nil {
			t.Fatal(err)
		}
		w, st := refuteWith(t, Config{RefuteBudget: 64, Witnesses: ws}, q1, q2)
		fault.Disable()
		if w != nil || len(ws.appends) != 0 {
			t.Errorf("fault %v: witness %v, appends %q, stats %+v; want neither", kind, w, ws.appends, st)
		}
	}

	ws := newWitnessMap()
	if _, st := refuteWith(t, Config{RefuteBudget: 64, Witnesses: ws}, q1, q2); len(ws.appends) != 1 {
		t.Fatalf("an unaborted search left %d records (stats %+v), want 1", len(ws.appends), st)
	}
}

// TestExhaustedRecordScope: records under another budget, constraint
// digest or SearchVersion describe other searches and are never
// consulted, so a refutable pair forged "exhausted" under each of them
// is still refuted.
func TestExhaustedRecordScope(t *testing.T) {
	q1, q2 := buildPlans(t, refutableSQL1, refutableSQL2)
	const digest = "d1"
	pairKey := plan.PairKey(q1, q2)
	own := refute.ExhaustedKey("c"+digest+":"+pairKey, q1, q2, refute.Options{Budget: 64})
	version := "x" + strconv.Itoa(refute.SearchVersion) + " "
	forged := []string{
		refute.ExhaustedKey("c"+digest+":"+pairKey, q1, q2, refute.Options{Budget: 32}),
		refute.ExhaustedKey("cd2:"+pairKey, q1, q2, refute.Options{Budget: 64}),
		refute.ExhaustedKey(pairKey, q1, q2, refute.Options{Budget: 64}),
		"x" + strconv.Itoa(refute.SearchVersion+1) + " " + strings.TrimPrefix(own, version),
	}
	ws := newWitnessMap()
	for _, k := range forged {
		if k == own {
			t.Fatalf("forged key %q equals the verifier's own key", k)
		}
		ws.m[k] = []byte(refute.ExhaustedRecord)
	}
	w, st := refuteWith(t, Config{RefuteBudget: 64, Witnesses: ws, ConstraintDigest: digest}, q1, q2)
	if w == nil || st.ExhaustedHits != 0 {
		t.Fatalf("witness %v, stats %+v: a record of another search was consulted", w, st)
	}
}

// TestForgedExhaustedRecord: a record forged under a refutable pair's own
// key costs the witness — the pair ends NotProved, never Equivalent — and
// a stored witness that replays still wins over such a record.
func TestForgedExhaustedRecord(t *testing.T) {
	q1, q2 := buildPlans(t, refutableSQL1, refutableSQL2)
	pairKey := plan.PairKey(q1, q2)
	key := refute.ExhaustedKey(pairKey, q1, q2, refute.Options{Budget: 64})
	ws := newWitnessMap()
	ws.m[key] = []byte(refute.ExhaustedRecord)
	cfg := Config{RefuteBudget: 64, Witnesses: ws}

	if w, st := refuteWith(t, cfg, q1, q2); w != nil || st.ExhaustedHits != 1 || st.RefuteRounds != 0 {
		t.Fatalf("forged record: witness %v, stats %+v; want NotProved from the record", w, st)
	}

	found, _ := refute.Search(q1, q2, refute.Options{Budget: 64})
	if found == nil {
		t.Fatal("the refutable pair has no witness")
	}
	data, err := found.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ws.m[pairKey] = data
	w, st := refuteWith(t, cfg, q1, q2)
	if w == nil || st.WitnessHits != 1 || st.ExhaustedHits != 0 {
		t.Fatalf("stored witness beside a forged record: witness %v, stats %+v; want the witness", w, st)
	}
}
