package verify

import (
	"fmt"
	"testing"

	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/plan"
)

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
