package plan

// Structural plan fingerprints: a cheap 64-bit hash that equal plan trees
// share and distinct trees almost never do. They serve where a fixed-size
// hash is the point, such as the refutation search's seed. Memo tables key
// on the full canonical serialization (Key/PairKey) instead: 64 bits
// cannot guarantee uniqueness, while the canonical encoding is injective
// (see AppendNode).
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

// HashKey hashes a string with the fingerprints' FNV-1a fold: applied to a
// canonical key (from Key or PairKey) it gives the fingerprint that key
// corresponds to. The cluster router applies it to request text.
func HashKey(key string) uint64 {
	enc := encoder{hashing: true, sum: fnvOffset64}
	enc.str(nil, key)
	return enc.sum
}
