package shardlake

import (
	"fmt"
	"math"
	"testing"
)

func TestArcSharesSumToOne(t *testing.T) {
	r := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 64, 1907)
	total := 0.0
	for _, s := range r.ArcShares() {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("arc shares sum to %v, want 1", total)
	}
}

// TestBalancedRingReducesSkew is the skew bound: across a spread of
// seeds and node counts the reweighted ring never exceeds 1.25x fair
// share.
func TestBalancedRingReducesSkew(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		names := make([]string, n)
		for i := range names {
			names[i] = ShardName(i)
		}
		for seed := int64(1); seed <= 20; seed++ {
			if bal := NewBalancedRing(names, 64, seed).Skew(); bal > 1.25 {
				t.Errorf("n=%d seed=%d: balanced skew %.3f exceeds 1.25x fair share", n, seed, bal)
			}
		}
	}
}

// TestBalancedRingDeterministic pins the rebuild-agreement invariant:
// independent constructions from differently-ordered name lists place
// every key identically, because a rebuilt ring that disagreed with the
// ring that placed the data would orphan records.
func TestBalancedRingDeterministic(t *testing.T) {
	a := NewBalancedRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 64, 42)
	b := NewBalancedRing([]string{"shard-3", "shard-1", "shard-0", "shard-2"}, 64, 42)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("record-%04d", i)
		if got, want := b.Placement(key, 2), a.Placement(key, 2); got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("key %s: %v vs %v across rebuilds", key, got, want)
		}
	}
}
