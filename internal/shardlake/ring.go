// Package shardlake shards the Data Lake horizontally: N
// store.DataLake shards behind a consistent-hash ring with virtual
// nodes, R-way replication, quorum reads with read-repair, hinted
// handoff for downed replicas, and online rebalancing when a shard
// joins or leaves. It implements store.Lake, so ingest, the export
// path and the caches swap over via core.Config.Shards/Replicas with
// Shards=1, Replicas=1 preserving today's single-lake behavior.
//
// The design leans on the platform's plane separation (hChain-style):
// the *data plane* shards freely because the *trust plane* — KMS keys,
// consent, provenance, the identity map — stays unsharded. Every shard
// hangs off the same KMS, so a replica is a byte-identical Sealed
// record installable anywhere, a grant on one replica's key covers all
// of them, and crypto-shredding the key kills every copy at once.
package shardlake

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring over shard names, built only by
// NewBalancedRing. It is immutable after construction: rebalancing
// swaps whole rings, never edits one, so readers need no lock beyond
// the pointer swap. The seed folds into every hash, making placement
// deterministic per (seed, shard set) and letting tests pin exact
// layouts.
type Ring struct {
	points []ringPoint
	shards []string
	seed   int64
}

// Shards returns the shard names on the ring, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Placement returns the n distinct shards responsible for key: the
// owner of the first virtual node clockwise from the key's hash, then
// the next distinct shards walking onward — the classic successor-list
// replica set. n is clamped to the shard count.
func (r *Ring) Placement(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	h := avalancheHash(r.seed, key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}

// ShardName is the conventional name of the i-th shard ("shard-i").
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// FaultPoint names a shard's fault-injection point for op ("put",
// "get" or "ping"): chaos tests kill shard s with
// Enable(FaultPoint(s, "put"), ...) etc.
func FaultPoint(shard, op string) string { return "shardlake." + shard + "." + op }
