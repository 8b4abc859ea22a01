// Package cluster is the multi-node verification tier: a stateless HTTP
// router that consistent-hashes each pair of an incoming batch onto a ring
// of spes-serve shards by a hash of its request text, forwards sub-batches
// concurrently, and reassembles verdicts in request order.
//
// Why text routing: a pair's verdict depends only on its own plans, so the
// workload partitions freely — but WHERE a pair lands decides whether the
// shard's warm state helps. Hashing the two SQL strings sends every
// recurrence of a pair, and the obligations it brings, to the same shard:
// each shard's obligation cache, term DAG, and durable store stay coherent
// on its slice of the workload instead of diluting hit rates N ways.
// Production queries recur verbatim, so the text co-locates what a plan
// fingerprint would, and the router needs no schema and parses nothing.
//
// Why failover is sound: verdicts are deterministic functions of the two
// plans (the whole repo's parity suites pin this), so re-verifying a pair on
// the ring successor after its owner dies returns the same answer. The
// router can therefore retry and fail over freely; the only thing it can
// never do is manufacture a verdict itself.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-shard vnode count. 128 points per shard
// keeps the expected per-shard load imbalance within ~10% relative (arc
// lengths concentrate as 1/sqrt(V)) while the ring stays small enough to
// rebuild on every membership change (rebuilds are O(N·V·log(N·V)) for N
// shards).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over shard IDs. Immutability is
// the concurrency story: the router swaps whole rings on membership change,
// and every request routes against the snapshot it started with.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by (hash, shard)
	shards []string    // member IDs, sorted
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the given shard IDs with vnodes virtual nodes
// per shard (<= 0 selects DefaultVirtualNodes). The ring is a pure function
// of the ID set: the same members hash to the same points in every process
// and across restarts, so a rebooted router routes exactly like its
// predecessor — a warm shard keeps receiving the slice it is warm for.
func NewRing(shardIDs []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	seen := map[string]bool{}
	for _, id := range shardIDs {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		r.shards = append(r.shards, id)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(id, v), shard: id})
		}
	}
	sort.Strings(r.shards)
	// Ties on hash (astronomically rare, but the ring must be a total
	// order) break by shard ID so Lookup stays deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// vnodeHash places one virtual node: FNV-64a over "id\x00#v", then a
// splitmix64 finalizer. The finalizer matters — raw FNV over short,
// near-identical strings leaves enough structure in the high bits to skew
// arc lengths badly (observed 36% of keys on one of four shards at 64
// vnodes). Everything here is seedless and map-free, so placement is
// stable across processes and restarts: ring position is durable state,
// not process state.
func vnodeHash(id string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d", v)
	x := h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Size returns the number of member shards.
func (r *Ring) Size() int { return len(r.shards) }

// Shards returns the member IDs in sorted order (shared slice; do not
// mutate).
func (r *Ring) Shards() []string { return r.shards }

// Lookup returns the shard owning the routing key: the first vnode at or
// after key on the ring, wrapping at the top. Empty ring returns "".
func (r *Ring) Lookup(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Successors returns up to n distinct shards in ring order starting at the
// routing key's owner — the failover sequence for a pair: if the owner
// dies, its pairs re-verify on the next shard in this list.
func (r *Ring) Successors(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(start+k)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// FailoverTargets reports which shards inherit id's key range if it
// leaves the ring, ordered by how much of that range each one takes
// (largest share first). With vnodes a dead shard's arcs scatter across
// MANY inheritors, not one "successor" — this is the list a warm-standby
// scheme must replicate toward, and the assignment is a pure function of
// membership, so every router and shard computes the same answer.
func (r *Ring) FailoverTargets(id string) []string {
	if len(r.points) == 0 {
		return nil
	}
	// Each of id's vnode arcs is inherited by the next point on the ring
	// that belongs to someone else; weight that inheritor by the arc length
	// it absorbs.
	share := map[string]uint64{}
	for i, p := range r.points {
		if p.shard != id {
			continue
		}
		// Arc length owned by this vnode: distance from the previous point
		// (wrapping) to this one.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev // uint64 wraparound handles the top-of-ring arc
		for k := 1; k < len(r.points); k++ {
			q := r.points[(i+k)%len(r.points)]
			if q.shard != id {
				share[q.shard] += arc
				break
			}
		}
	}
	out := make([]string, 0, len(share))
	for s := range share {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if share[out[i]] != share[out[j]] {
			return share[out[i]] > share[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Without returns a ring over the members minus the excluded shards —
// how a request-scoped failover re-routes without waiting for the global
// membership view to catch up.
func (r *Ring) Without(excluded map[string]bool) *Ring {
	if len(excluded) == 0 {
		return r
	}
	keep := make([]string, 0, len(r.shards))
	for _, id := range r.shards {
		if !excluded[id] {
			keep = append(keep, id)
		}
	}
	return NewRing(keep, r.vnodes)
}
