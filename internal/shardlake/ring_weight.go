package shardlake

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// This file holds the ring's construction and arc accounting. Points
// and key lookups use a full-avalanche SHA-256 position hash (a weak
// hash over structured names like "shard-3#17" clusters the points and
// leaves one shard owning up to 2x its fair share), and per-shard vnode
// counts are then greedily reweighted to shave the residual statistical
// skew. Everything stays deterministic per (shard set, seed).

// newRingCounts builds a ring with an explicit vnode count per shard.
func newRingCounts(names []string, counts map[string]int, seed int64) *Ring {
	r := &Ring{shards: names, seed: seed}
	total := 0
	for _, name := range names {
		total += counts[name]
	}
	r.points = make([]ringPoint, 0, total)
	for _, name := range names {
		for v := 0; v < counts[name]; v++ {
			r.points = append(r.points, ringPoint{
				hash:  avalancheHash(seed, name+"#"+strconv.Itoa(v)),
				shard: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// avalancheHash positions balanced-ring points: SHA-256 over the seed
// and name, so structurally similar names land independently.
func avalancheHash(seed int64, s string) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h := sha256.New()
	h.Write(buf[:])
	h.Write([]byte(s))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// ArcShares reports the fraction of the hash circle each shard owns —
// the stationary distribution of Placement(·, 1) over uniform keys.
func (r *Ring) ArcShares() map[string]float64 {
	out := make(map[string]float64, len(r.shards))
	if len(r.points) == 0 {
		return out
	}
	const circle = float64(1<<63) * 2 // 2^64
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// uint64 subtraction wraps, which is exactly the arc length
		// across the 0 point for i == 0.
		out[p.shard] += float64(p.hash-prev) / circle
	}
	return out
}

// Skew is the largest arc share relative to a fair 1/N split: 1.0 is a
// perfectly balanced ring, 1.3 means the hottest shard owns 30% more
// keyspace than its fair share.
func (r *Ring) Skew() float64 {
	shares := r.ArcShares()
	if len(shares) == 0 {
		return 1
	}
	max := 0.0
	for _, s := range shares {
		if s > max {
			max = s
		}
	}
	return max * float64(len(r.shards))
}

// NewBalancedRing builds a skew-corrected ring: avalanche-hashed point
// positions, then per-shard vnode counts greedily reweighted to
// minimize Skew — each round moves one vnode from the shard owning the
// most keyspace to the shard owning the least, and the best ring seen
// wins. Deterministic per (shard set, seed) — names are sorted and
// ties break lexically, so independent rebuilds agree, which is the
// invariant routing correctness rests on.
func NewBalancedRing(shards []string, vnodes int, seed int64) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	names := append([]string(nil), shards...)
	sort.Strings(names)
	counts := make(map[string]int, len(names))
	for _, name := range names {
		counts[name] = vnodes
	}
	best := newRingCounts(names, counts, seed)
	if len(names) < 2 {
		return best
	}
	bestSkew := best.Skew()
	// Walk up to 64 moves per shard, always from the currently hottest
	// arc owner to the coldest, keeping the best ring seen. Individual
	// moves are noisy (the freed arc may fall to another hot shard), so
	// the walk pushes through local non-improvements instead of stopping
	// at the first one; the round cap bounds the oscillation that allows.
	cur := best
	for round := 0; round < 64*len(names) && bestSkew > 1.05; round++ {
		shares := cur.ArcShares()
		over, under := "", ""
		for _, name := range names {
			if over == "" || shares[name] > shares[over] {
				over = name
			}
			if under == "" || shares[name] < shares[under] {
				under = name
			}
		}
		if over == under || counts[over] <= 1 {
			break
		}
		counts[over]--
		counts[under]++
		cur = newRingCounts(names, counts, seed)
		if skew := cur.Skew(); skew < bestSkew {
			best, bestSkew = cur, skew
		}
	}
	return best
}
