package multichain

import (
	"testing"

	"healthcloud/internal/shardlake"
)

// FuzzChannelAssignment pins routing determinism: the same key must
// route to the same channel across independent ring rebuilds —
// including rebuilds from a differently ordered name list — for any
// key, channel count, and seed. This is the invariant the whole
// subsystem leans on: if a rebuilt ring (restart, monitor, auditor)
// ever disagreed with the ring that placed the data, records would
// silently split across channels and the per-record total order would
// be gone.
func FuzzChannelAssignment(f *testing.F) {
	f.Add("patient-00042", uint64(4), int64(2112))
	f.Add("", uint64(1), int64(0))
	f.Add("ref-a", uint64(7), int64(1907))
	f.Add("идентификатор-пациента", uint64(3), int64(-9000))
	f.Fuzz(func(t *testing.T, key string, channels uint64, seed int64) {
		n := int(channels%8) + 1
		names := make([]string, n)
		reversed := make([]string, n)
		for i := range names {
			names[i] = ChannelName(i)
			reversed[n-1-i] = ChannelName(i)
		}
		digest := routeDigest(key)
		a := shardlake.NewBalancedRing(names, ringVnodes, seed).Placement(digest, 1)[0]
		b := shardlake.NewBalancedRing(reversed, ringVnodes, seed).Placement(digest, 1)[0]
		c := shardlake.NewBalancedRing(names, ringVnodes, seed).Placement(digest, 1)[0]
		if a != b {
			t.Fatalf("key %q (n=%d seed=%d): %s from sorted build, %s from reversed build", key, n, seed, a, b)
		}
		if a != c {
			t.Fatalf("key %q (n=%d seed=%d): rebuild disagreed: %s vs %s", key, n, seed, a, c)
		}
		valid := false
		for _, name := range names {
			if a == name {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("key %q routed to unknown channel %s", key, a)
		}
	})
}
