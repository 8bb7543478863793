package multichain

import (
	"fmt"
	"testing"

	"healthcloud/internal/shardlake"
)

// TestChannelRingSkewBound pins the E21 skew fix at the routing layer:
// over a large structured-key population the balanced channel ring
// keeps every channel's share of traffic within 25% of fair. Runs on
// rings directly (no networks) so the bound is cheap to sweep.
func TestChannelRingSkewBound(t *testing.T) {
	const channels, keys = 4, 20000
	names := make([]string, channels)
	for i := range names {
		names[i] = ChannelName(i)
	}
	balanced := shardlake.NewBalancedRing(names, ringVnodes, testSeed)

	balCounts := make(map[string]int, channels)
	for i := 0; i < keys; i++ {
		balCounts[balanced.Placement(routeDigest(fmt.Sprintf("patient-%08d", i)), 1)[0]]++
	}
	fair := float64(keys) / channels
	balMax := 0
	for _, name := range names {
		if balCounts[name] == 0 {
			t.Fatalf("balanced ring starves %s entirely: %v", name, balCounts)
		}
		if balCounts[name] > balMax {
			balMax = balCounts[name]
		}
	}
	if skew := float64(balMax) / fair; skew > 1.25 {
		t.Errorf("balanced routing skew %.3f exceeds 1.25x fair share: %v", skew, balCounts)
	}
	if skew := balanced.Skew(); skew > 1.25 {
		t.Errorf("balanced arc-share skew %.3f exceeds 1.25", skew)
	}
}
