package multichain

import (
	"fmt"
	"testing"

	"healthcloud/internal/shardlake"
)

// TestChannelRingSkewBound pins the E21 skew fix at the routing layer:
// over a large structured-key population the balanced channel ring
// keeps every channel's share of traffic within 25% of fair, while the
// legacy equal-vnode FNV ring it replaces is measurably worse. Runs on
// rings directly (no networks) so the bound is cheap to sweep.
func TestChannelRingSkewBound(t *testing.T) {
	const channels, keys = 4, 20000
	names := make([]string, channels)
	for i := range names {
		names[i] = ChannelName(i)
	}
	balanced := shardlake.NewBalancedRing(names, ringVnodes, testSeed)
	legacy := shardlake.NewRing(names, ringVnodes, testSeed)

	count := func(r *shardlake.Ring) map[string]int {
		out := make(map[string]int, channels)
		for i := 0; i < keys; i++ {
			out[r.Placement(routeDigest(fmt.Sprintf("patient-%08d", i)), 1)[0]]++
		}
		return out
	}
	balCounts, legCounts := count(balanced), count(legacy)
	fair := float64(keys) / channels
	balMax, legMax := 0, 0
	for _, name := range names {
		if balCounts[name] == 0 {
			t.Fatalf("balanced ring starves %s entirely: %v", name, balCounts)
		}
		if balCounts[name] > balMax {
			balMax = balCounts[name]
		}
		if legCounts[name] > legMax {
			legMax = legCounts[name]
		}
	}
	if skew := float64(balMax) / fair; skew > 1.25 {
		t.Errorf("balanced routing skew %.3f exceeds 1.25x fair share: %v", skew, balCounts)
	}
	if float64(balMax)/fair >= float64(legMax)/fair {
		t.Errorf("balanced ring (max %d) not better than legacy (max %d)", balMax, legMax)
	}
	if skew := balanced.Skew(); skew > 1.25 {
		t.Errorf("balanced arc-share skew %.3f exceeds 1.25", skew)
	}
}
