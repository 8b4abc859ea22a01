package plan

// Structural plan fingerprints for the batch-verification engine: a cheap
// 64-bit hash that equal plan trees share and distinct trees almost never
// do. Fingerprints index memo tables (normalization results, pair dedupe);
// because 64 bits cannot guarantee uniqueness, every fingerprint-keyed
// table must confirm identity against the full canonical serialization
// (Key/PairKey) before reusing an entry — soundness never rests on hash
// uniqueness, only on the canonical encoding being injective (see
// AppendNode).
//
// Every function here is a pure function of the tree: they mutate nothing
// and keep no memoized state, so they are safe to call concurrently on
// shared plans. Fingerprints hash the canonical encoding as it is
// produced, so they allocate nothing, and they obey two identities:
//
//	Fingerprint(n)        == HashKey(Key(n))
//	PairFingerprint(a, b) == HashKey(PairKey(a, b))
//
// A caller that needs both the key and the fingerprint builds the key once
// and hashes it with HashKey, instead of walking the tree twice.

// Fingerprint returns a 64-bit structural hash of a plan tree. Two trees
// hash identically iff they are structurally equal, up to 64-bit
// collisions: column names are excluded (they are not semantically
// significant), exactly as in Format.
func Fingerprint(n Node) uint64 {
	enc := encoder{hashing: true, sum: fnvOffset64}
	enc.tree(nil, n)
	return enc.sum
}

// Key returns the canonical serialization of a plan: the collision-free
// companion of Fingerprint (identical to Format, named for its cache-key
// role).
func Key(n Node) string { return Format(n) }

// PairFingerprint hashes an ordered pair of plans into one fingerprint.
func PairFingerprint(a, b Node) uint64 {
	enc := encoder{hashing: true, sum: fnvOffset64}
	enc.tree(nil, a)
	enc.byte(nil, 0) // separator: pair boundaries cannot shift
	enc.tree(nil, b)
	return enc.sum
}

// PairKey returns the collision-free canonical serialization of an ordered
// pair of plans: Format(a) + "\x00" + Format(b).
func PairKey(a, b Node) string {
	var buf [keyBufSize]byte
	key := append(AppendNode(buf[:0], a), 0)
	return string(AppendNode(key, b))
}

// HashKey hashes an already-computed canonical key (from Key, PairKey, or
// their concatenation) to the fingerprint it corresponds to.
func HashKey(key string) uint64 {
	enc := encoder{hashing: true, sum: fnvOffset64}
	enc.str(nil, key)
	return enc.sum
}
