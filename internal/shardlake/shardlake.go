package shardlake

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"healthcloud/internal/faultinject"
	"healthcloud/internal/resilience"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// Errors returned by this package.
var (
	ErrNoShards    = errors.New("shardlake: at least one shard required")
	ErrDupShard    = errors.New("shardlake: duplicate shard name")
	ErrRebalancing = errors.New("shardlake: a rebalance is already in progress")
	ErrUnavailable = errors.New("shardlake: not enough replicas reachable")
)

// Shard pairs a shard name with its backing lake. All shards must share
// one KMS (they do when built by core: each is NewDataLake(kms, ...)).
type Shard struct {
	Name string
	Lake *store.DataLake
}

// Config sizes a sharded lake.
type Config struct {
	// Replicas is the replication factor R (default 1, clamped to the
	// shard count). Every object is sealed once and installed on the R
	// distinct shards its reference id hashes to.
	Replicas int
	// Seed fixes ring placement for reproducible experiments.
	Seed int64
	// Faults, when set, gives every shard its own fault points
	// ("shardlake.<name>.{put,get,ping}") on this registry.
	Faults *faultinject.Registry
	// Registry/Tracer wire telemetry (nil disables each at zero cost).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

// ringVNodes is the virtual-node count per shard before reweighting.
const ringVNodes = 64

// replicaRetry bounds the per-replica write attempts before a failed
// replica write turns into a hint.
var replicaRetry = resilience.Policy{
	MaxAttempts: 3, BaseDelay: 500 * time.Microsecond, MaxDelay: 5 * time.Millisecond,
}

// Lake is the sharded Data Lake. It implements store.Lake.
type Lake struct {
	replicas int
	seed     int64
	faults   *faultinject.Registry
	tracer   *telemetry.Tracer
	met      *metrics
	sealer   *store.DataLake // coordinator crypto only; never stores

	mu     sync.RWMutex
	shards map[string]*store.DataLake
	ring   *Ring
	// prev holds the pre-rebalance ring while a migration runs, so
	// reads consult both placements and are correct mid-migration.
	prev          *Ring
	rebalancing   bool
	rebalanceDone chan struct{}
	// hints buffers sealed writes a downed replica missed, keyed
	// shard → refID → record (latest wins, tombstones beat live).
	hints map[string]map[string]store.Sealed

	moved    atomic.Uint64
	repairs  atomic.Uint64
	hinted   atomic.Uint64
	drained  atomic.Uint64
	pumpOnce sync.Once
	pumpStop chan struct{}
	wg       sync.WaitGroup
}

var _ store.Lake = (*Lake)(nil)

// metrics instruments the sharded lake; nil disables it.
type metrics struct {
	reg          *telemetry.Registry
	putReplicas  *telemetry.Counter // replica writes that landed
	repairs      *telemetry.Counter
	repairLat    *telemetry.Histogram
	hintsAdded   *telemetry.Counter
	hintsDrained *telemetry.Counter
	moves        *telemetry.Counter
	backlog      *telemetry.Gauge
	shardsGauge  *telemetry.Gauge
}

// New builds a sharded lake over the given shards. Each shard's fault
// points are rescoped to "shardlake.<name>.*" when cfg.Faults is set.
func New(shards []Shard, cfg Config) (*Lake, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(shards) {
		cfg.Replicas = len(shards)
	}
	l := &Lake{
		replicas: cfg.Replicas, seed: cfg.Seed, faults: cfg.Faults, tracer: cfg.Tracer,
		shards:   make(map[string]*store.DataLake, len(shards)),
		hints:    make(map[string]map[string]store.Sealed),
		pumpStop: make(chan struct{}),
	}
	names := make([]string, 0, len(shards))
	for _, s := range shards {
		if s.Lake == nil || s.Name == "" {
			return nil, ErrNoShards
		}
		if _, dup := l.shards[s.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupShard, s.Name)
		}
		l.wireShard(s.Name, s.Lake)
		l.shards[s.Name] = s.Lake
		names = append(names, s.Name)
	}
	l.sealer = shards[0].Lake
	l.ring = NewBalancedRing(names, ringVNodes, cfg.Seed)
	if cfg.Registry != nil {
		l.met = &metrics{
			reg:          cfg.Registry,
			putReplicas:  cfg.Registry.Counter("shardlake_replica_writes_total"),
			repairs:      cfg.Registry.Counter("shardlake_repairs_total"),
			repairLat:    cfg.Registry.Histogram("shardlake_repair_seconds"),
			hintsAdded:   cfg.Registry.Counter("shardlake_hints_total"),
			hintsDrained: cfg.Registry.Counter("shardlake_hints_drained_total"),
			moves:        cfg.Registry.Counter("shardlake_moves_total"),
			backlog:      cfg.Registry.Gauge("shardlake_hint_backlog"),
			shardsGauge:  cfg.Registry.Gauge("shardlake_shards"),
		}
		l.Collect()
	}
	return l, nil
}

// wireShard scopes a shard's fault points under its name.
func (l *Lake) wireShard(name string, lake *store.DataLake) {
	lake.SetFaultScope("shardlake." + name)
	lake.SetFaults(l.faults)
}

// Replicas returns the replication factor R.
func (l *Lake) Replicas() int { return l.replicas }

// Shards lists the shard names, sorted.
func (l *Lake) Shards() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.shards))
	for name := range l.shards {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// shard resolves a name to its lake (nil if detached).
func (l *Lake) shard(name string) *store.DataLake {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.shards[name]
}

// placement is the write-side replica set (current ring only).
func (l *Lake) placement(key string) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ring.Placement(key, l.replicas)
}

// readTargets is the read-side replica set: the current placement
// plus, mid-migration, the previous one, so an object not yet moved is
// still found.
func (l *Lake) readTargets(key string) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := l.ring.Placement(key, l.replicas)
	if l.prev != nil {
		seen := make(map[string]bool, len(out))
		for _, n := range out {
			seen[n] = true
		}
		for _, n := range l.prev.Placement(key, l.replicas) {
			if !seen[n] {
				out = append(out, n)
			}
		}
	}
	return out
}

// Put seals the record once (one data key, one ciphertext) and
// installs it on the R shards its reference id hashes to. Each replica
// write gets bounded retries; a replica that stays down receives a
// hint instead, drained on recovery. The write is accepted as long as
// at least one replica is durable — hinted handoff keeps availability
// through single-replica outages; it fails only when every replica is
// unreachable (no durable copy would exist).
func (l *Lake) Put(subject string, plaintext []byte, meta store.Meta) (string, error) {
	sealed, err := l.sealer.Seal(subject, plaintext, meta)
	if err != nil {
		return "", err
	}
	if err := l.replicate(sealed); err != nil {
		return "", err
	}
	return sealed.RefID, nil
}

// replicate installs a sealed record on its placement shards.
func (l *Lake) replicate(s store.Sealed) error {
	targets := l.placement(s.RefID)
	var failed []string
	var firstErr error
	ok := 0
	for _, name := range targets {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		err := resilience.Retry(context.Background(), replicaRetry, func(context.Context) error {
			return shard.PutSealed(s)
		})
		if err == nil {
			ok++
			if m := l.met; m != nil {
				m.putReplicas.Inc()
			}
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		failed = append(failed, name)
	}
	if ok == 0 {
		return fmt.Errorf("%w: no replica of %s durable: %v", ErrUnavailable, s.RefID, firstErr)
	}
	// Only hint once the write is accepted: a rejected write is retried
	// by the caller under a fresh reference id, and hints for it would
	// resurrect an orphan.
	for _, name := range failed {
		l.addHint(name, s)
	}
	return nil
}

// Get resolves the record across its replicas (quorum read), repairs
// stale or missing reachable replicas from the authoritative copy, and
// decrypts on behalf of principal.
func (l *Lake) Get(refID, principal string) ([]byte, error) {
	s, err := l.resolve(refID)
	if err != nil {
		return nil, err
	}
	return l.sealer.Open(s, principal)
}

// resolve performs the quorum read: consult every replica (reads pay
// R sealed fetches, the full read quorum), pick the authoritative copy
// — a tombstone beats any live copy, since deletion is always the
// newer fact — and re-install it on reachable current-placement
// replicas that miss it or hold a stale live copy.
// Repairs are traced (shardlake.get → shardlake.repair spans); clean
// reads stay span-free so hot read loops don't flood the span store.
func (l *Lake) resolve(refID string) (store.Sealed, error) {
	targets := l.readTargets(refID)
	current := l.placement(refID)
	copies := make(map[string]store.Sealed, len(targets))
	var best *store.Sealed
	var lastErr error
	unreachable := make(map[string]bool)
	for _, name := range targets {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		s, err := shard.GetSealed(refID)
		switch {
		case err == nil:
			copies[name] = s
			if best == nil || (s.Deleted && !best.Deleted) {
				c := s
				best = &c
			}
		case errors.Is(err, store.ErrNotFound):
			// reachable, record absent: a repair candidate
		default:
			unreachable[name] = true
			lastErr = err
		}
	}
	if best == nil {
		// Fall back to a full scan: mid-rebalance an object may sit on
		// a shard outside both placements for a moment (copied but not
		// yet evicted elsewhere, or a partial earlier migration). The
		// scan keeps reads correct whatever the migration state.
		if s, holder := l.scanFor(refID); s != nil {
			best = s
			copies[holder] = *s
		}
	}
	if best == nil {
		if len(unreachable) > 0 {
			return store.Sealed{}, fmt.Errorf("%w: %s: %v", ErrUnavailable, refID, lastErr)
		}
		return store.Sealed{}, fmt.Errorf("%w: %s", store.ErrNotFound, refID)
	}
	l.readRepair(refID, *best, current, copies, unreachable)
	return *best, nil
}

// scanFor looks for a record on any attached shard (rebalance
// fallback). Returns the best copy found and its holder.
func (l *Lake) scanFor(refID string) (*store.Sealed, string) {
	l.mu.RLock()
	names := make([]string, 0, len(l.shards))
	for name := range l.shards {
		names = append(names, name)
	}
	l.mu.RUnlock()
	sort.Strings(names)
	var best *store.Sealed
	holder := ""
	for _, name := range names {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		if s, err := shard.GetSealed(refID); err == nil {
			if best == nil || (s.Deleted && !best.Deleted) {
				c := s
				best = &c
				holder = name
			}
		}
	}
	return best, holder
}

// readRepair re-installs the authoritative copy on current-placement
// replicas that are reachable but missing it or holding a stale live
// copy while the record is deleted. Unreachable replicas get hints.
func (l *Lake) readRepair(refID string, best store.Sealed, current []string, copies map[string]store.Sealed, unreachable map[string]bool) {
	var stale []string
	for _, name := range current {
		if unreachable[name] {
			if best.Deleted {
				// A missed deletion must not be forgotten: hint the
				// tombstone so the downed replica converges on drain.
				l.addHint(name, best)
			}
			continue
		}
		c, ok := copies[name]
		if !ok || (best.Deleted && !c.Deleted) {
			stale = append(stale, name)
		}
	}
	if len(stale) == 0 {
		return
	}
	sp := l.tracer.StartRoot("shardlake.get")
	sc := sp.Context()
	sp.SetAttr("ref", refID)
	sp.SetAttr("stale_replicas", fmt.Sprint(len(stale)))
	for _, name := range stale {
		rsp := l.tracer.StartSpan("shardlake.repair", sc)
		rsp.SetAttr("shard", name)
		shard := l.shard(name)
		if shard == nil {
			rsp.End()
			continue
		}
		var start time.Time
		if m := l.met; m != nil {
			start = m.repairLat.Start()
		}
		if err := shard.PutSealed(best); err != nil {
			rsp.SetAttr("error", err.Error())
			l.addHint(name, best)
		} else {
			l.repairs.Add(1)
			if m := l.met; m != nil {
				m.repairs.Inc()
			}
		}
		if m := l.met; m != nil {
			m.repairLat.ObserveSinceTrace(start, sc.TraceID)
		}
		rsp.End()
	}
	sp.End()
	// Read-repair is a root trace of its own; it is complete here.
	l.tracer.FinishTrace(sc.TraceID)
}

// Grant allows another principal to read a record. All shards share one
// KMS and every copy is sealed under the same key, so a grant through
// any holder covers all of them (repair included); nothing is journaled.
func (l *Lake) Grant(refID, principal string) error {
	_, holder, err := l.anyCopy(refID)
	if err != nil {
		return err
	}
	return holder.Grant(refID, principal)
}

// Meta returns a record's metadata. Meta is fixed at Seal and a
// tombstone keeps it, so any copy answers.
func (l *Lake) Meta(refID string) (store.Meta, error) {
	s, _, err := l.anyCopy(refID)
	return s.Meta, err
}

// anyCopy returns the first copy of a record that a read target holds,
// and the shard holding it: no quorum and no repair. Mid-rebalance it
// falls back to a full scan, like resolve.
func (l *Lake) anyCopy(refID string) (store.Sealed, *store.DataLake, error) {
	var lastErr error
	for _, name := range l.readTargets(refID) {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		s, err := shard.GetSealed(refID)
		if err == nil {
			return s, shard, nil
		}
		if !errors.Is(err, store.ErrNotFound) {
			lastErr = err
		}
	}
	if s, name := l.scanFor(refID); s != nil {
		if shard := l.shard(name); shard != nil {
			return *s, shard, nil
		}
	}
	if lastErr != nil {
		return store.Sealed{}, nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, refID, lastErr)
	}
	return store.Sealed{}, nil, fmt.Errorf("%w: %s", store.ErrNotFound, refID)
}

// SecureDelete crypto-shreds a record everywhere: the shared data key
// is destroyed once (killing every replica's ciphertext at a stroke,
// Shred being idempotent across holders), then every current-placement
// shard is left holding the tombstone — installed outright on reachable
// shards, hinted to unreachable ones. Installing tombstones rather
// than merely deleting holders is what makes deletion race-free
// against read-repair and rebalance copies: whichever side writes
// last, PutSealed's tombstone-wins invariant converges the replica to
// deleted. The tombstones remain for audit, like the single-lake
// contract.
func (l *Lake) SecureDelete(refID string) error {
	// Pass 1: find a copy (for its key id and metadata) and shred every
	// reachable holder.
	var found *store.Sealed
	var holders []string
	unreachable := 0
	for _, name := range l.readTargets(refID) {
		shard := l.shard(name)
		if shard == nil {
			continue
		}
		s, err := shard.GetSealed(refID)
		switch {
		case err == nil:
			holders = append(holders, name)
			if found == nil || (s.Deleted && !found.Deleted) {
				c := s
				found = &c
			}
		case errors.Is(err, store.ErrNotFound):
		default:
			unreachable++
		}
	}
	if found == nil {
		// Mid-rebalance the only copy may sit outside both placements.
		if s, holder := l.scanFor(refID); s != nil {
			found = s
			holders = append(holders, holder)
		}
	}
	if found == nil {
		if unreachable > 0 {
			return fmt.Errorf("%w: %s", ErrUnavailable, refID)
		}
		return fmt.Errorf("%w: %s", store.ErrNotFound, refID)
	}
	deleted := 0
	for _, name := range holders {
		if shard := l.shard(name); shard != nil {
			if err := shard.SecureDelete(refID); err == nil {
				deleted++
			}
		}
	}
	if deleted == 0 {
		return fmt.Errorf("%w: %s", ErrUnavailable, refID)
	}
	// Pass 2: every current-placement shard ends with the tombstone.
	tomb := store.Sealed{RefID: refID, KeyID: found.KeyID, Meta: found.Meta, Deleted: true}
	for _, name := range l.placement(refID) {
		shard := l.shard(name)
		if shard == nil {
			l.addHint(name, tomb)
			continue
		}
		if err := shard.PutSealed(tomb); err != nil {
			l.addHint(name, tomb)
		}
	}
	return nil
}

// List returns the union of the shards' listings, deduplicated (each
// replica reports the same reference id) and sorted.
func (l *Lake) List(tenantName, group string) []string {
	l.mu.RLock()
	lakes := make([]*store.DataLake, 0, len(l.shards))
	for _, shard := range l.shards {
		lakes = append(lakes, shard)
	}
	l.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	for _, shard := range lakes {
		for _, id := range shard.List(tenantName, group) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Count returns the number of distinct live objects across all shards.
func (l *Lake) Count() int { return len(l.List("", "")) }

// Ping reports aggregate serviceability: nil while quorum holds —
// fewer shards down than the replication factor, so every placement
// group keeps at least one live replica — an error once availability
// can no longer be guaranteed. Per-shard states come from ShardHealth.
func (l *Lake) Ping() error {
	health := l.ShardHealth()
	down := 0
	var lastErr error
	for _, err := range health {
		if err != nil {
			down++
			lastErr = err
		}
	}
	if down >= l.replicas || down == len(health) {
		return fmt.Errorf("shardlake: %d/%d shards down, quorum lost: %w", down, len(health), lastErr)
	}
	return nil
}

// ShardHealth pings every shard and returns its error (nil = healthy).
func (l *Lake) ShardHealth() map[string]error {
	l.mu.RLock()
	lakes := make(map[string]*store.DataLake, len(l.shards))
	for name, shard := range l.shards {
		lakes[name] = shard
	}
	l.mu.RUnlock()
	out := make(map[string]error, len(lakes))
	for name, shard := range lakes {
		out[name] = shard.Ping()
	}
	return out
}

// ShardPing pings one shard by name.
func (l *Lake) ShardPing(name string) error {
	shard := l.shard(name)
	if shard == nil {
		return fmt.Errorf("shardlake: unknown shard %q", name)
	}
	return shard.Ping()
}

// QuorumHolds reports whether every placement group still has a live
// replica (down shards < replication factor).
func (l *Lake) QuorumHolds() bool {
	down := 0
	for _, err := range l.ShardHealth() {
		if err != nil {
			down++
		}
	}
	return down < l.replicas && down < l.shardCount()
}

func (l *Lake) shardCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.shards)
}

// ShardObjects returns per-shard live object counts (telemetry and the
// E19 scaling report).
func (l *Lake) ShardObjects() map[string]int {
	l.mu.RLock()
	lakes := make(map[string]*store.DataLake, len(l.shards))
	for name, shard := range l.shards {
		lakes[name] = shard
	}
	l.mu.RUnlock()
	out := make(map[string]int, len(lakes))
	for name, shard := range lakes {
		out[name] = shard.Count()
	}
	return out
}

// Repairs reports how many replica repairs the read path performed.
func (l *Lake) Repairs() uint64 { return l.repairs.Load() }

// Collect refreshes the pull-style gauges (per-shard object counts,
// shard count, hint backlog). Core's watchdog calls it each tick.
func (l *Lake) Collect() {
	m := l.met
	if m == nil {
		return
	}
	for name, n := range l.ShardObjects() {
		m.reg.Gauge(`shardlake_objects{shard="` + name + `"}`).Set(int64(n))
	}
	m.shardsGauge.Set(int64(l.shardCount()))
	m.backlog.Set(int64(l.HintBacklog()))
}

// VerifyConvergence checks, object by object, that every replica each
// record's current placement demands exists and is byte-identical
// (key id, ciphertext, tombstone flag). It returns the distinct object
// count and the reference ids with a missing or divergent replica —
// the E19 post-recovery convergence proof.
func (l *Lake) VerifyConvergence() (objects int, divergent []string) {
	refs := l.allRefs()
	for _, ref := range refs {
		objects++
		var want *store.Sealed
		bad := false
		for _, name := range l.placement(ref) {
			shard := l.shard(name)
			if shard == nil {
				bad = true
				break
			}
			s, err := shard.GetSealed(ref)
			if err != nil {
				bad = true
				break
			}
			if want == nil {
				c := s
				want = &c
				continue
			}
			if s.KeyID != want.KeyID || s.Deleted != want.Deleted ||
				!bytesEqual(s.Ciphertext, want.Ciphertext) {
				bad = true
				break
			}
		}
		if bad || want == nil {
			divergent = append(divergent, ref)
		}
	}
	return objects, divergent
}

// RepairAll sweeps every known object through quorum resolution with
// repair enabled, re-installing the authoritative copy on any replica
// that is missing or stale. It returns the repair count of the pass
// (the lake's lifetime counter delta). After a crash-restart the
// hinted-handoff buffers are gone — hints are in-memory by design —
// so this sweep is how a recovered cluster proactively re-converges
// instead of waiting for each object to be read.
func (l *Lake) RepairAll() int {
	before := l.repairs.Load()
	for _, ref := range l.allRefs() {
		l.resolve(ref)
	}
	return int(l.repairs.Load() - before)
}

// allRefs is the union of every shard's reference ids, tombstones
// included, sorted.
func (l *Lake) allRefs() []string {
	l.mu.RLock()
	lakes := make([]*store.DataLake, 0, len(l.shards))
	for _, shard := range l.shards {
		lakes = append(lakes, shard)
	}
	l.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	for _, shard := range lakes {
		for _, id := range shard.Refs() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
