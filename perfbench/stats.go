package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 resting on fewer is one or two slow pairs, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// and how many samples lie strictly above that rank. samples need not be
// sorted; the slice is not modified.
func percentile(samples []float64, p float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// tailReady reports whether n samples put at least minBeyond samples above
// the nearest-rank p-quantile.
func tailReady(n int, p float64) bool {
	if n == 0 {
		return false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	return n-1-rank >= minBeyond
}

// median of the samples (mean of the middle two for an even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share is num/den, absent (ok == false) when the denominator is zero: a
// share over nothing is not 1.0 and not 0, it is undefined.
func share(num, den int) (v float64, ok bool) {
	if den == 0 {
		return 0, false
	}
	return float64(num) / float64(den), true
}

// verdictDigest hashes a pass's verdicts — (pair id, verdict, witness
// bytes), in pair-id order so that every seed's order of the same list
// gives the same digest — so two passes, two runs, or a traced and an
// untraced run can be compared with one string.
func verdictDigest(ids []string, outs []outcome) string {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	h := sha256.New()
	var n [8]byte
	field := func(b []byte) {
		for i := range n {
			n[i] = byte(len(b) >> (8 * i))
		}
		h.Write(n[:])
		h.Write(b)
	}
	for _, i := range order {
		field([]byte(ids[i]))
		field([]byte(outs[i].verdict))
		field(encodeWitness(outs[i].witness))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// shuffled returns a seed-determined permutation of 0..n-1.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
