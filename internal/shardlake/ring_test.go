package shardlake

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	a := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2"}, 64, 42)
	b := NewBalancedRing([]string{"shard-2", "shard-0", "shard-1"}, 64, 42) // order-insensitive
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("ref-%03d", i)
		if got, want := a.Placement(key, 2), b.Placement(key, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("placement(%s) differs between identical rings: %v vs %v", key, got, want)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	a := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 64, 1)
	b := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 64, 2)
	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("ref-%03d", i)
		if a.Placement(key, 1)[0] != b.Placement(key, 1)[0] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("different seeds produced identical placement for all 200 keys")
	}
}

func TestRingPlacementDistinctAndClamped(t *testing.T) {
	r := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2"}, 64, 7)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("ref-%03d", i)
		p := r.Placement(key, 2)
		if len(p) != 2 || p[0] == p[1] {
			t.Fatalf("placement(%s, 2) = %v, want 2 distinct shards", key, p)
		}
	}
	// n above the shard count clamps; n below 1 clamps to 1.
	if got := r.Placement("x", 10); len(got) != 3 {
		t.Errorf("over-replicated placement = %v, want all 3 shards", got)
	}
	if got := r.Placement("x", 0); len(got) != 1 {
		t.Errorf("zero-replica placement = %v, want 1 shard", got)
	}
}

func TestRingDistribution(t *testing.T) {
	shards := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := NewBalancedRing(shards, 64, 1907)
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Placement(fmt.Sprintf("ref-%05d", i), 1)[0]]++
	}
	// With 64 vnodes each shard should land within [15%, 40%] of a
	// 4-way split — loose bounds, but a lost vnode set or a broken hash
	// lands far outside them.
	for _, s := range shards {
		frac := float64(counts[s]) / keys
		if frac < 0.15 || frac > 0.40 {
			t.Errorf("shard %s owns %.1f%% of keys, want 15%%–40%%", s, 100*frac)
		}
	}
}

func TestRingMinimalDisruptionOnJoin(t *testing.T) {
	before := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2"}, 64, 1907)
	after := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 64, 1907)
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("ref-%05d", i)
		if before.Placement(key, 1)[0] != after.Placement(key, 1)[0] {
			moved++
		}
	}
	// Consistent hashing's whole point: a join moves ~1/N of the keys,
	// not all of them. Allow up to 40% (ideal is 25%).
	if frac := float64(moved) / keys; frac > 0.40 {
		t.Errorf("join moved %.1f%% of keys, want ~25%% (consistent hashing broken)", 100*frac)
	}
}
