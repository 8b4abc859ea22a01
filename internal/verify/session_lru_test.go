package verify

import (
	"fmt"
	"testing"

	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/plan"
)

// distinctPrefix builds the i-th structurally distinct boolean prefix,
// interned in the verifier's interner so it is a valid sessionFor key.
func distinctPrefix(v *Verifier, i int) *fol.Term {
	return v.in.Intern(fol.Gt(v.in.NumVar("x"), v.in.Int(int64(i))))
}

// TestSessionLRUCountBound pins the count bound of the session table: the
// table never holds more than maxLiveSessions entries, evictions are
// counted, and they fall on the least-recently-used prefixes.
func TestSessionLRUCountBound(t *testing.T) {
	v := New()
	const n = maxLiveSessions + 8
	prefixes := make([]*fol.Term, n)
	for i := 0; i < n; i++ {
		prefixes[i] = distinctPrefix(v, i)
		v.sessionFor(prefixes[i])
	}
	if got := len(v.sessions); got > maxLiveSessions {
		t.Errorf("session table holds %d entries, bound is %d", got, maxLiveSessions)
	}
	if got, want := v.stats.SessionEvicts, n-maxLiveSessions; got != want {
		t.Errorf("SessionEvicts = %d, want %d", got, want)
	}
	// The first 8 prefixes are the least recently used; they must be gone.
	for i := 0; i < n-maxLiveSessions; i++ {
		if _, ok := v.sessions[prefixes[i]]; ok {
			t.Errorf("prefix %d should have been evicted (LRU)", i)
		}
	}
	if _, ok := v.sessions[prefixes[n-1]]; !ok {
		t.Error("most recent prefix evicted")
	}
}

// TestSessionLRURecencyRefresh pins that reusing a prefix protects it: a
// touched entry moves to the front and survives evictions that claim
// colder entries inserted after it.
func TestSessionLRURecencyRefresh(t *testing.T) {
	v := New()
	prefixes := make([]*fol.Term, maxLiveSessions)
	for i := range prefixes {
		prefixes[i] = distinctPrefix(v, i)
		v.sessionFor(prefixes[i])
	}
	// Touch the oldest entry, then push the table over the bound.
	v.sessionFor(prefixes[0])
	for i := 0; i < 4; i++ {
		v.sessionFor(distinctPrefix(v, 1000+i))
	}
	if _, ok := v.sessions[prefixes[0]]; !ok {
		t.Error("recently reused prefix was evicted; LRU must be on last reuse")
	}
	if _, ok := v.sessions[prefixes[1]]; ok {
		t.Error("coldest untouched prefix survived past the bound")
	}
}

// TestSessionDrainOnRetiredInterner pins the rotation hook: once the
// verifier's interner epoch is retired, the next session lookup drains the
// whole table (its encodings key on retired-epoch IDs) and counts the
// drain as evictions.
func TestSessionDrainOnRetiredInterner(t *testing.T) {
	v := New()
	for i := 0; i < 5; i++ {
		v.sessionFor(distinctPrefix(v, i))
	}
	if got := len(v.sessions); got != 5 {
		t.Fatalf("sanity: %d sessions live, want 5", got)
	}
	v.in.Retire()
	p := distinctPrefix(v, 99)
	v.sessionFor(p)
	if got := v.stats.SessionEvicts; got != 5 {
		t.Errorf("SessionEvicts = %d after drain, want 5", got)
	}
	if got := len(v.sessions); got != 1 {
		t.Errorf("table holds %d entries after drain, want 1 (the new session)", got)
	}
	if _, ok := v.sessions[p]; !ok {
		t.Error("post-drain prefix missing from the rebuilt table")
	}
}

// mapStore is a DurableStore test double: an always-hit in-memory map with
// call counters, standing in for internal/store without the file I/O.
type mapStore struct {
	m       map[string]bool
	lookups int
	appends int
}

func newMapStore() *mapStore { return &mapStore{m: map[string]bool{}} }

func (s *mapStore) LookupVerdict(key string) (bool, bool) {
	s.lookups++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) AppendVerdict(key string, valid bool) {
	s.appends++
	s.m[key] = valid
}

// TestStoreTierAnswersAcrossVerifiers pins the durable tier end to end at
// the verify layer: a verifier with a store populates it with definite
// verdicts, and a second verifier — fresh interner, so no obligation-cache
// key overlap is even possible — answers the same pair from the store with
// the same outcome and zero solver work beyond the store lookups.
func TestStoreTierAnswersAcrossVerifiers(t *testing.T) {
	cat := testCatalog(t)
	b := plan.NewBuilder(cat)
	q1, err := b.BuildSQL("SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := b.BuildSQL("SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5")
	if err != nil {
		t.Fatal(err)
	}
	nz := normalize.New(normalize.Options{})
	n1, n2 := nz.Normalize(q1), nz.Normalize(q2)

	st := newMapStore()
	v1 := NewWithConfig(Config{Store: st})
	cold := v1.VerifyPlans(n1, n2)
	if !cold {
		t.Fatalf("sanity: pair not proved cold; stats %v", v1.Stats())
	}
	if st.appends == 0 {
		t.Fatal("no verdicts appended to the store")
	}
	if v1.Stats().StoreMisses == 0 {
		t.Error("cold run recorded no store misses")
	}

	v2 := NewWithConfig(Config{Store: st})
	warm := v2.VerifyPlans(n1, n2)
	if warm != cold {
		t.Fatalf("store changed the outcome: cold %v, warm %v", cold, warm)
	}
	s2 := v2.Stats()
	if s2.StoreHits == 0 {
		t.Errorf("warm run hit the store 0 times: %v", s2)
	}
	if s2.SolverQueries != 0 {
		t.Errorf("warm run still issued %d solver queries; every obligation should answer from the store", s2.SolverQueries)
	}
}

// TestStoreKeysAreInternerIndependent pins the property the durable tier
// rests on: the same obligation gets the same canonical key under
// different interners (different epochs, different processes).
func TestStoreKeysAreInternerIndependent(t *testing.T) {
	for i := 0; i < 3; i++ {
		v1, v2 := New(), New()
		f := func(v *Verifier) string {
			t1 := v.in.Intern(fol.Gt(v.in.NumVar(fmt.Sprintf("x%d", i)), v.in.Int(7)))
			return v.canonicalKey(t1)
		}
		if k1, k2 := f(v1), f(v2); k1 != k2 {
			t.Fatalf("canonical keys differ across interners: %q vs %q", k1, k2)
		}
	}
}
