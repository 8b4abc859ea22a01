package fol

import (
	"fmt"
	"sync"
	"testing"
)

// buildSample builds one moderately shaped formula through the package
// constructors, with leaves from in.
func buildSample(in *Interner, i int) *Term {
	x := in.NumVar("x")
	y := in.NumVar(fmt.Sprintf("y%d", i%7))
	f := in.App("f", SortNum, x, y)
	p := in.BoolVar("p")
	return And(
		Or(p, Lt(Add(x, Mul(in.Int(2), y)), f)),
		Eq(Add(x, y), Add(y, x)),
		Implies(Le(x, y), Le(Neg(y), Neg(x))),
		Eq(Ite(p, x, y), f),
	)
}

// ownedBy reports whether u belongs to in: owned by it, or a universal
// singleton.
func ownedBy(u *Term, in *Interner) bool {
	return u.Owner() == in || u == True() || u == False()
}

func TestInternPointerIdentity(t *testing.T) {
	in := NewInterner()
	a := buildSample(in, 3)
	b := buildSample(in, 3)
	if a != b {
		t.Fatalf("structurally equal interned terms are different pointers:\n%s\n%s", a, b)
	}
	if a.Owner() != in || a.ID() < 2 {
		t.Fatalf("root not owned by its interner or carries a reserved ID: id=%d", a.ID())
	}
	// Every subterm is interned in the same DAG, and IDs identify nodes.
	byID := make(map[uint32]*Term)
	Walk(a, func(u *Term) bool {
		if !ownedBy(u, in) {
			t.Fatalf("subterm %s owned by another interner", u)
		}
		if prev, ok := byID[u.ID()]; ok && prev != u {
			t.Fatalf("ID %d names two distinct nodes %s and %s", u.ID(), prev, u)
		}
		byID[u.ID()] = u
		return true
	})
	if in.Len() < len(byID) {
		t.Fatalf("interner Len %d < %d distinct IDs observed", in.Len(), len(byID))
	}
}

func TestInternSingletons(t *testing.T) {
	in := NewInterner()
	if in.True() != True() || in.False() != False() {
		t.Fatal("interner singletons differ from package singletons")
	}
	if True().ID() != 0 || False().ID() != 1 {
		t.Fatalf("singleton IDs: true=%d false=%d, want 0 and 1", True().ID(), False().ID())
	}
	if True().Key() != "true" || False().Key() != "false" {
		t.Fatalf("singleton keys: %q, %q", True().Key(), False().Key())
	}
	if in2 := NewInterner(); in2.Tag() == in.Tag() {
		t.Fatal("two interners share a tag")
	}
}

// TestKeyMatchesString pins the eager key: Key(), assembled at intern time
// from the children's keys, must equal String(), a full re-walk of the
// tree, on every subterm. And the key is interner-independent — the same
// construction in two interners yields the same key — which is what lets
// the durable store key verdicts across interner epochs and processes.
func TestKeyMatchesString(t *testing.T) {
	inA, inB := NewInterner(), NewInterner()
	for i := 0; i < 7; i++ {
		a := buildSample(inA, i)
		Walk(a, func(u *Term) bool {
			if u.Key() != u.String() {
				t.Fatalf("eager key diverges from the re-walk:\nkey    %s\nstring %s", u.Key(), u.String())
			}
			return true
		})
		b := buildSample(inB, i)
		if a.Key() != b.Key() {
			t.Fatalf("two interners key one construction differently:\n%s\n%s", a.Key(), b.Key())
		}
		if a == b || !a.Equal(b) {
			t.Fatal("Equal rejects a structurally equal cross-interner pair")
		}
	}
}

func TestInternMixedInterners(t *testing.T) {
	inA, inB := NewInterner(), NewInterner()
	a := buildSample(inA, 1)
	b := inB.Intern(a)
	if b == a || b.Owner() != inB {
		t.Fatal("intern across interners returned the foreign node")
	}
	if a.Key() != b.Key() {
		t.Fatal("cross-interner intern changed the canonical form")
	}
	if inB.Intern(a) != b {
		t.Fatal("re-interning a foreign term is not a lookup")
	}
	// A constructor over mixed arguments picks one interner and copies the
	// foreign argument into it, so the result's DAG is self-consistent.
	mixed := And(a, Not(b))
	owner := mixed.Owner()
	Walk(mixed, func(u *Term) bool {
		if !ownedBy(u, owner) {
			t.Fatalf("node %s owned by another interner in a mixed-interner formula", u)
		}
		return true
	})
}

// TestKeyRaceInterned is the -race regression for key publication: many
// goroutines hammer Key() on one shared non-singleton term. The key is
// published at intern time, before any goroutine can hold the pointer, so
// this must be race-free.
func TestKeyRaceInterned(t *testing.T) {
	in := NewInterner()
	shared := buildSample(in, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if shared.Key() == "" {
					t.Error("empty key on interned term")
					return
				}
				if shared.String() != shared.Key() {
					t.Error("String and Key diverge")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEqualFastPathSameInterner(t *testing.T) {
	in := NewInterner()
	x, y := in.NumVar("x"), in.NumVar("y")
	if x.Equal(y) {
		t.Fatal("distinct interned terms compare equal")
	}
	if !x.Equal(in.NumVar("x")) {
		t.Fatal("interned term not equal to itself")
	}
}

func BenchmarkIntern(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := NewInterner()
			buildSample(in, i%7)
		}
	})
	b.Run("hit", func(b *testing.B) {
		// Steady state: every node already interned, so each build is
		// hash-cons lookups only.
		in := NewInterner()
		for i := 0; i < 7; i++ {
			buildSample(in, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildSample(in, i%7)
		}
	})
}
