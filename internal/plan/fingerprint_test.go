package plan

import (
	"testing"

	"spes/internal/corpus"
)

func buildPlan(t *testing.T, sql string) Node {
	t.Helper()
	n, err := NewBuilder(corpus.Catalog()).BuildSQL(sql)
	if err != nil {
		t.Fatalf("BuildSQL(%q): %v", sql, err)
	}
	return n
}

func TestFingerprintStructuralEquality(t *testing.T) {
	sql := "SELECT DEPT_ID FROM EMP WHERE SALARY > 100"
	a := buildPlan(t, sql)
	b := buildPlan(t, sql) // independently built tree, same structure
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("independently built copies of the same query must share a fingerprint")
	}
	if Key(a) != Key(b) {
		t.Error("canonical keys of structurally equal plans must match")
	}
	if Key(a) != Format(a) {
		t.Error("Key must be the canonical Format serialization")
	}
}

func TestFingerprintDistinguishesPlans(t *testing.T) {
	queries := []string{
		"SELECT DEPT_ID FROM EMP WHERE SALARY > 100",
		"SELECT DEPT_ID FROM EMP WHERE SALARY > 101",
		"SELECT DEPT_ID FROM EMP WHERE SALARY >= 100",
		"SELECT SALARY FROM EMP WHERE DEPT_ID > 100",
		"SELECT DEPT_ID FROM EMP",
		"SELECT DEPT_ID, SALARY FROM EMP",
	}
	seenFP := map[uint64]string{}
	seenKey := map[string]string{}
	for _, q := range queries {
		n := buildPlan(t, q)
		fp, key := Fingerprint(n), Key(n)
		if prev, ok := seenKey[key]; ok {
			t.Errorf("distinct queries share a canonical key:\n  %s\n  %s", prev, q)
		}
		seenKey[key] = q
		if prev, ok := seenFP[fp]; ok {
			// A 64-bit collision between six hand-picked plans would be
			// astronomical; flag it, since these plans must bucket apart.
			t.Errorf("distinct plans share fingerprint %#x:\n  %s\n  %s", fp, prev, q)
		}
		seenFP[fp] = q
	}
}

func TestPairFingerprintOrderSensitive(t *testing.T) {
	a := buildPlan(t, "SELECT DEPT_ID FROM EMP WHERE SALARY > 100")
	b := buildPlan(t, "SELECT DEPT_ID FROM EMP WHERE SALARY > 200")
	if PairFingerprint(a, b) == PairFingerprint(b, a) {
		t.Error("pair fingerprint must be order-sensitive (verification is asymmetric in general)")
	}
	if PairKey(a, b) == PairKey(b, a) {
		t.Error("pair key must be order-sensitive")
	}
	if PairFingerprint(a, b) != PairFingerprint(a, b) {
		t.Error("pair fingerprint must be deterministic")
	}
}

// TestPairKeySeparatorUnambiguous pins the framing property: the pair key
// cannot confuse (A, BC) with (AB, C). Each canonical encoding is
// self-delimiting (its brackets balance outside quoted text), and an
// ordinary plan's encoding contains no NUL at all.
func TestPairKeySeparatorUnambiguous(t *testing.T) {
	a := buildPlan(t, "SELECT DEPT_ID FROM EMP")
	for _, r := range Format(a) {
		if r == 0 {
			t.Fatal("canonical serialization contains NUL; the pair-key framing is ambiguous")
		}
	}
	if PairKey(a, a) != Format(a)+"\x00"+Format(a) {
		t.Error("PairKey must be the two canonical forms joined by NUL")
	}
}

// TestHashKeyMatchesFingerprint pins the equivalence single-pass callers
// rely on: hashing the canonical key string gives the tree fingerprint.
func TestHashKeyMatchesFingerprint(t *testing.T) {
	a := buildPlan(t, "SELECT DEPT_ID FROM EMP WHERE SALARY > 100")
	b := buildPlan(t, "SELECT SALARY FROM EMP WHERE DEPT_ID = 7")
	if HashKey(Key(a)) != Fingerprint(a) {
		t.Error("HashKey(Key(n)) must equal Fingerprint(n)")
	}
	if HashKey(PairKey(a, b)) != PairFingerprint(a, b) {
		t.Error("HashKey(PairKey(a, b)) must equal PairFingerprint(a, b)")
	}
}

func TestFingerprintConcurrentUse(t *testing.T) {
	// Fingerprint and Key must be safe on a shared plan (run under -race).
	n := buildPlan(t, "SELECT DEPT_ID FROM EMP WHERE SALARY + 1 > 100")
	want := Fingerprint(n)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				if Fingerprint(n) != want {
					panic("fingerprint not deterministic")
				}
				_ = Key(n)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
