package fol

import (
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
)

// Interner hash-conses terms, and is the only way a term comes to exist:
// within one interner, structurally equal terms are the same pointer, carry
// the same dense uint32 ID, and share one eagerly computed canonical key.
// Downstream layers exploit this three ways:
//
//   - identity is a pointer (or ID) comparison instead of a tree walk or a
//     canonical-string compare;
//   - maps key on uint32 IDs instead of serialized strings, and formulas
//     traverse as DAGs (visit-once per ID) instead of trees;
//   - Key() is a field read, safe on shared terms, because the key is
//     written before the node is published.
//
// Leaves come from the Interner's own constructors (Var, Num, App, ...).
// The package-level composite constructors (And, Eq, Add, ...) build in the
// interner of their arguments, so code that builds formulas from interned
// leaves never has to thread an interner handle explicitly. Arguments from
// a different interner are copied in structurally.
//
// The boolean singletons True/False are universal: they hold the reserved
// IDs 0 and 1 in every interner and may mix freely with any interner's
// terms.
//
// Interning only merges structurally identical terms, so neither sharing a
// node nor which interner a term lives in can change the meaning of a
// formula; the differential tests in internal/verify assert verdict parity
// between a fresh and a shared interner.
//
// All methods are safe for concurrent use; an engine's workers share one
// interner so the term DAG (and every downstream cache keyed on its IDs) is
// shared across the whole batch.
type Interner struct {
	mu      sync.Mutex
	buckets map[uint64][]*Term
	n       uint32
	tag     uint64
}

// internerTags hands out process-unique tags. Tags (not interner pointer
// addresses, which the allocator can reuse) make cache keys derived from
// term IDs collision-free across interner lifetimes.
var internerTags atomic.Uint64

// NewInterner returns an empty interner. IDs 0 and 1 are reserved for the
// universal boolean singletons, which no interner stores: constructors
// return them directly and Intern passes them through.
func NewInterner() *Interner {
	return &Interner{
		buckets: make(map[uint64][]*Term, 64),
		n:       2,
		tag:     internerTags.Add(1),
	}
}

// Tag returns a process-unique identifier for this interner. Combined with
// a term ID it forms a compact cache key that can never alias a key minted
// by a different interner (unlike the interner's address, which the garbage
// collector may reuse).
func (in *Interner) Tag() uint64 { return in.tag }

// Len returns the number of distinct term nodes interned, including the two
// singletons. It is also the exclusive upper bound of issued IDs, so
// ID-indexed visit-once slices can be sized with it.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int(in.n)
}

// Intern returns this interner's node for t. A term this interner already
// owns (or a universal singleton) returns in O(1); a term owned by a
// different interner is hash-consed structurally (the original is never
// mutated, so shared inputs stay race-free).
func (in *Interner) Intern(t *Term) *Term {
	if t.in == in || t == termTrue || t == termFalse {
		return t
	}
	return in.insert(t, false)
}

// adopt hash-conses a node freshly built by a constructor in this package.
// The node is unreachable by any other goroutine, so on a miss it is
// adopted in place instead of copied.
func (in *Interner) adopt(t *Term) *Term { return in.insert(t, true) }

// insert is the hash-consing core: it interns t's children, then returns
// the existing node equal to t or publishes a new one. owned reports that t
// may be published in place.
func (in *Interner) insert(t *Term, owned bool) *Term {
	args := t.Args
	var copied []*Term
	for i, a := range args {
		ia := in.Intern(a)
		if ia != a && copied == nil {
			copied = make([]*Term, len(args))
			copy(copied, args)
		}
		if copied != nil {
			copied[i] = ia
		}
	}
	if copied != nil {
		args = copied
	}
	h := hashNode(t.Kind, t.Sort, t.Name, t.Rat, args)

	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.buckets[h] {
		if c.Kind != t.Kind || c.Sort != t.Sort || c.Name != t.Name || len(c.Args) != len(args) {
			continue
		}
		if t.Kind == KNum && c.Rat.Cmp(t.Rat) != 0 {
			continue
		}
		same := true
		for i := range args {
			if c.Args[i] != args[i] { // children interned: pointer identity
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
	nt := t
	if !owned || copied != nil {
		nt = &Term{Kind: t.Kind, Sort: t.Sort, Name: t.Name, Rat: t.Rat, Args: args}
	}
	nt.in = in
	nt.id = in.n
	nt.hash = h
	// Children are already keyed, so the key is one concatenation per node,
	// and it is published before the node.
	var b strings.Builder
	nt.write1(&b, (*Term).writeKey)
	nt.key = b.String()
	in.n++
	in.buckets[h] = append(in.buckets[h], nt)
	return nt
}

// --- leaf constructors -----------------------------------------------------

// True returns the universal boolean constant true (ID 0).
func (in *Interner) True() *Term { return termTrue }

// False returns the universal boolean constant false (ID 1).
func (in *Interner) False() *Term { return termFalse }

// Bool returns the universal boolean constant for v.
func (in *Interner) Bool(v bool) *Term { return Bool(v) }

// Var returns the interned variable of the given sort.
func (in *Interner) Var(name string, s Sort) *Term {
	return in.adopt(&Term{Kind: KVar, Sort: s, Name: name})
}

// NumVar returns the interned numeric variable named name.
func (in *Interner) NumVar(name string) *Term { return in.Var(name, SortNum) }

// BoolVar returns the interned boolean variable named name.
func (in *Interner) BoolVar(name string) *Term { return in.Var(name, SortBool) }

// Num returns the interned numeric constant with value r (copied).
func (in *Interner) Num(r *big.Rat) *Term {
	return in.adopt(&Term{Kind: KNum, Sort: SortNum, Rat: new(big.Rat).Set(r)})
}

// Int returns the interned numeric constant with integer value v.
func (in *Interner) Int(v int64) *Term {
	return in.adopt(&Term{Kind: KNum, Sort: SortNum, Rat: big.NewRat(v, 1)})
}

// App returns the interned uninterpreted function application with the
// given result sort. A zero-argument application is an uninterpreted
// constant. Applications are always built here, never by the composite
// constructors: an application of no interned argument (a constant, or one
// over the boolean singletons) has no argument to take an interner from.
func (in *Interner) App(name string, s Sort, args ...*Term) *Term {
	return in.adopt(&Term{Kind: KApp, Sort: s, Name: name, Args: args})
}

// --- structural hashing ----------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashNode(k Kind, s Sort, name string, rat *big.Rat, args []*Term) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(k)) * fnvPrime64
	h = (h ^ uint64(s)) * fnvPrime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	if rat != nil {
		h = hashInt(h, rat.Num())
		h = hashInt(h, rat.Denom())
	}
	for _, a := range args {
		// Children are interned before the parent is hashed, so a.hash is
		// their structural hash; mixing it keeps hashNode O(len(args)).
		x := a.hash
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime64
			x >>= 8
		}
	}
	return h
}

func hashInt(h uint64, z *big.Int) uint64 {
	if z.Sign() < 0 {
		h = (h ^ 1) * fnvPrime64
	}
	for _, w := range z.Bits() {
		x := uint64(w)
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime64
			x >>= 8
		}
	}
	return h
}

func init() {
	termTrue.hash = hashNode(KTrue, SortBool, "", nil, nil)
	termFalse.hash = hashNode(KFalse, SortBool, "", nil, nil)
	termFalse.id = 1
}
