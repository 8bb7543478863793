package shardlake

import (
	"context"
	"fmt"
	"time"

	"healthcloud/internal/resilience"
	"healthcloud/internal/store"
)

// Online rebalancing: adding or removing a shard swaps in a new ring
// and starts a background migration. While it runs, reads consult both
// the new and the old placement (plus a full-scan fallback), so every
// object stays readable mid-migration. The migrator copies each record
// to the shards the new ring demands, verifies every new target holds
// it, and only then evicts copies from shards that no longer own it —
// at no instant is an object's replica count below its pre-move value.

// AddShard attaches a new shard and rebalances onto it. One topology
// change runs at a time.
func (l *Lake) AddShard(name string, lake *store.DataLake) error {
	if lake == nil || name == "" {
		return ErrNoShards
	}
	l.mu.Lock()
	if l.rebalancing {
		l.mu.Unlock()
		return ErrRebalancing
	}
	if _, dup := l.shards[name]; dup {
		l.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDupShard, name)
	}
	l.wireShard(name, lake)
	l.shards[name] = lake
	l.startRebalanceLocked(append(l.ring.Shards(), name), "")
	l.mu.Unlock()
	return nil
}

// RemoveShard drains a shard out of the cluster: its objects migrate
// to the survivors, then it is detached. The last shard cannot leave,
// and the cluster cannot shrink below the replication factor.
func (l *Lake) RemoveShard(name string) error {
	l.mu.Lock()
	if l.rebalancing {
		l.mu.Unlock()
		return ErrRebalancing
	}
	if _, ok := l.shards[name]; !ok {
		l.mu.Unlock()
		return fmt.Errorf("shardlake: unknown shard %q", name)
	}
	if len(l.shards) <= 1 || len(l.shards)-1 < l.replicas {
		l.mu.Unlock()
		return fmt.Errorf("shardlake: cannot remove %q: %d shards must remain for R=%d", name, l.replicas, l.replicas)
	}
	if l.sealer == l.shards[name] {
		// The sealer only does coordinator crypto against the shared
		// KMS; any member can take over.
		for other, lake := range l.shards {
			if other != name {
				l.sealer = lake
				break
			}
		}
	}
	remaining := make([]string, 0, len(l.shards)-1)
	for _, n := range l.ring.Shards() {
		if n != name {
			remaining = append(remaining, n)
		}
	}
	l.startRebalanceLocked(remaining, name)
	l.mu.Unlock()
	return nil
}

// startRebalanceLocked swaps in the new ring (keeping the old one for
// mid-migration reads) and spawns the migrator. Caller holds l.mu.
func (l *Lake) startRebalanceLocked(names []string, leaving string) {
	l.prev = l.ring
	l.ring = NewBalancedRing(names, ringVNodes, l.seed)
	l.rebalancing = true
	l.rebalanceDone = make(chan struct{})
	done := l.rebalanceDone
	l.wg.Add(1)
	go l.migrate(leaving, done)
}

// Resettle runs the rebalance migration onto the current shard set and
// waits for it: every ref on every shard is copied to its placement and
// evicted from the shards outside it. It moves a data directory laid
// out by an earlier ring once, at open; ErrRebalancing if a migration
// is already running.
func (l *Lake) Resettle() error {
	l.mu.Lock()
	if l.rebalancing {
		l.mu.Unlock()
		return ErrRebalancing
	}
	l.startRebalanceLocked(l.ring.Shards(), "")
	done := l.rebalanceDone
	l.mu.Unlock()
	<-done
	return nil
}

// Rebalancing reports whether a migration is in flight.
func (l *Lake) Rebalancing() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rebalancing
}

// Moved counts objects migrated across all rebalances.
func (l *Lake) Moved() uint64 { return l.moved.Load() }

// WaitRebalance blocks until the in-flight migration (if any)
// finishes, or the timeout passes.
func (l *Lake) WaitRebalance(timeout time.Duration) error {
	l.mu.RLock()
	done := l.rebalanceDone
	rebalancing := l.rebalancing
	l.mu.RUnlock()
	if !rebalancing || done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("shardlake: rebalance still running after %v", timeout)
	}
}

// migrate is the background rebalance worker. For each object in the
// cluster it ensures every new-ring target holds a copy, then evicts
// copies from shards the new ring no longer assigns. A copy that
// cannot be delivered becomes a hint and blocks the eviction of the
// old copies for that object — correctness first, balance second.
func (l *Lake) migrate(leaving string, done chan struct{}) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		l.prev = nil
		l.rebalancing = false
		if leaving != "" {
			// Detach only if its hints drained; otherwise keep it
			// attached so the backlog can still land.
			if len(l.hints[leaving]) == 0 {
				delete(l.shards, leaving)
			}
		}
		l.mu.Unlock()
		l.Collect()
		close(done)
	}()

	for _, ref := range l.allRefs() {
		l.migrateOne(ref, leaving)
	}
}

// migrateOne settles a single object onto its new-ring placement.
func (l *Lake) migrateOne(ref, leaving string) {
	targets := l.placement(ref)
	want := make(map[string]bool, len(targets))
	for _, n := range targets {
		want[n] = true
	}

	// Find the authoritative copy and who currently holds one.
	var src *store.Sealed
	holders := make(map[string]bool)
	for _, name := range l.Shards() {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		if s, err := shard.GetSealed(ref); err == nil {
			holders[name] = true
			if src == nil || (s.Deleted && !src.Deleted) {
				c := s
				src = &c
			}
		}
	}
	if src == nil {
		return // all holders unreachable right now; next read repairs it
	}

	// Copy to every new target that lacks it.
	settled := true
	for _, name := range targets {
		if holders[name] {
			continue
		}
		shard := l.shard(name)
		if shard == nil {
			settled = false
			continue
		}
		err := resilience.Retry(context.Background(), replicaRetry, func(context.Context) error {
			return shard.PutSealed(*src)
		})
		if err != nil {
			l.addHint(name, *src)
			settled = false
			continue
		}
		holders[name] = true
		l.moved.Add(1)
		if l.met != nil {
			l.met.moves.Inc()
		}
	}

	// Evict from non-targets only once every target verifiably holds
	// the object — re-read, don't trust our own bookkeeping.
	if !settled {
		return
	}
	for _, name := range targets {
		shard := l.shard(name)
		if shard == nil {
			return
		}
		if _, err := shard.GetSealed(ref); err != nil {
			return
		}
	}
	for name := range holders {
		if want[name] {
			continue
		}
		if shard := l.shard(name); shard != nil {
			shard.Evict(ref)
		}
	}
}
