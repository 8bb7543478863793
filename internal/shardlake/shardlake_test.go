package shardlake

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// testCluster bundles a sharded lake with handles to its parts so
// tests can reach under the hood (inspect a specific shard, break one
// by name).
type testCluster struct {
	lake   *Lake
	kms    *hckrypto.KMS
	faults *faultinject.Registry
	shards map[string]*store.DataLake
}

func newCluster(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	kms, err := hckrypto.NewKMS("shard-test")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewRegistry(99)
	members := make([]Shard, n)
	byName := make(map[string]*store.DataLake, n)
	for i := range members {
		lake := store.NewDataLake(kms, "svc-storage")
		name := ShardName(i)
		members[i] = Shard{Name: name, Lake: lake}
		byName[name] = lake
	}
	sl, err := New(members, Config{
		Replicas: replicas, Seed: 1907, Faults: faults,
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sl.Close)
	return &testCluster{lake: sl, kms: kms, faults: faults, shards: byName}
}

func (c *testCluster) put(t *testing.T, subject string) string {
	t.Helper()
	ref, err := c.lake.Put(subject, []byte("payload for "+subject), store.Meta{
		ContentType: "test", Tenant: "shard-test", Group: "g",
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// kill makes a shard fail puts, gets and pings (a full outage).
func (c *testCluster) kill(name string) {
	for _, op := range []string{"put", "get", "ping"} {
		c.faults.Enable(FaultPoint(name, op), faultinject.Fault{ErrorRate: 1})
	}
}

func (c *testCluster) heal(name string) {
	for _, op := range []string{"put", "get", "ping"} {
		c.faults.Disable(FaultPoint(name, op))
	}
}

// holders lists which shards hold refID (tombstones included).
func (c *testCluster) holders(refID string) []string {
	var out []string
	for _, name := range c.lake.Shards() {
		if _, err := c.shards[name].GetSealed(refID); err == nil {
			out = append(out, name)
		}
	}
	return out
}

func TestReplicationPlacesRCopies(t *testing.T) {
	c := newCluster(t, 3, 2)
	for i := 0; i < 20; i++ {
		ref := c.put(t, fmt.Sprintf("patient-%02d", i))
		holders := c.holders(ref)
		if len(holders) != 2 {
			t.Fatalf("%s held by %v, want exactly 2 shards", ref, holders)
		}
		want := c.lake.placement(ref)
		for j, name := range want {
			if holders[j] != name && holders[0] != name && holders[1] != name {
				t.Fatalf("%s holders %v don't match ring placement %v", ref, holders, want)
			}
		}
		body, err := c.lake.Get(ref, "svc-storage")
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != "payload for "+fmt.Sprintf("patient-%02d", i) {
			t.Fatalf("round-trip mismatch for %s", ref)
		}
	}
}

func TestGetSurvivesOneReplicaDown(t *testing.T) {
	c := newCluster(t, 3, 2)
	refs := make([]string, 30)
	for i := range refs {
		refs[i] = c.put(t, fmt.Sprintf("patient-%02d", i))
	}
	c.kill(ShardName(1))
	for _, ref := range refs {
		if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
			t.Fatalf("get %s with one shard down: %v", ref, err)
		}
	}
}

func TestReadRepairRestoresMissingReplica(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	victim := c.lake.placement(ref)[1]
	c.shards[victim].Evict(ref)
	if got := len(c.holders(ref)); got != 1 {
		t.Fatalf("setup: %d holders, want 1", got)
	}
	if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
		t.Fatal(err)
	}
	if got := c.holders(ref); len(got) != 2 {
		t.Fatalf("after read: holders %v, want repaired back to 2", got)
	}
	if c.lake.Repairs() == 0 {
		t.Error("repair not counted")
	}
}

func TestReadRepairPropagatesTombstone(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	// Capture the live sealed copy, delete the record, then plant the
	// stale live copy back on one replica — simulating a replica that
	// missed the deletion entirely.
	stale, err := c.shards[c.lake.placement(ref)[0]].GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	victim := c.lake.placement(ref)[1]
	c.shards[victim].Evict(ref)
	if err := c.shards[victim].PutSealed(stale); err != nil {
		t.Fatal(err)
	}
	// The quorum read must serve the deletion (tombstone wins) and
	// repair the stale replica back to a tombstone.
	if _, err := c.lake.Get(ref, "svc-storage"); !errors.Is(err, store.ErrDeleted) {
		t.Fatalf("get = %v, want ErrDeleted (tombstone must win the quorum)", err)
	}
	s, err := c.shards[victim].GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Deleted {
		t.Error("stale live replica not repaired to a tombstone")
	}
}

func TestSecureDeleteTombstonesEveryReplica(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	if err := c.lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := c.lake.Get(ref, "svc-storage"); !errors.Is(err, store.ErrDeleted) {
		t.Errorf("get after delete = %v, want ErrDeleted", err)
	}
	for _, name := range c.lake.placement(ref) {
		s, err := c.shards[name].GetSealed(ref)
		if err != nil {
			t.Fatalf("replica %s lost its tombstone: %v", name, err)
		}
		if !s.Deleted {
			t.Errorf("replica %s copy not tombstoned", name)
		}
	}
	// Deleting again reports not-found-style failure? No: idempotent
	// tombstone delete succeeds against the tombstone holders.
	if _, div := c.lake.VerifyConvergence(); len(div) != 0 {
		t.Errorf("divergent after delete: %v", div)
	}
}

func TestLateHintCannotResurrectDeletedRecord(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	target := c.lake.placement(ref)[0]
	live, err := c.shards[target].GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	// A stale hint delivering the live copy after deletion must bounce
	// off the tombstone.
	c.lake.addHint(target, live)
	c.lake.DrainHints()
	s, err := c.shards[target].GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Deleted {
		t.Error("late live hint resurrected a securely-deleted record")
	}
}

func TestHintedHandoffDrainsOnRecovery(t *testing.T) {
	c := newCluster(t, 3, 2)
	dead := ShardName(2)
	c.kill(dead)
	refs := make([]string, 40)
	for i := range refs {
		refs[i] = c.put(t, fmt.Sprintf("patient-%02d", i)) // must not error: quorum holds
	}
	if c.lake.HintBacklog() == 0 {
		t.Fatal("no hints queued while a replica was down")
	}
	// Everything stays readable through the outage.
	for _, ref := range refs {
		if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
			t.Fatalf("get %s during outage: %v", ref, err)
		}
	}
	c.heal(dead)
	c.lake.DrainHints()
	if got := c.lake.HintBacklog(); got != 0 {
		t.Fatalf("backlog after drain = %d, want 0", got)
	}
	if _, div := c.lake.VerifyConvergence(); len(div) != 0 {
		t.Fatalf("divergent after drain: %v", div)
	}
}

func TestPutFailsOnlyWhenNoReplicaDurable(t *testing.T) {
	c := newCluster(t, 2, 2)
	c.kill(ShardName(0))
	c.kill(ShardName(1))
	if _, err := c.lake.Put("patient-1", []byte("x"), store.Meta{}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("put with all replicas down = %v, want ErrUnavailable", err)
	}
	c.heal(ShardName(0))
	if _, err := c.lake.Put("patient-2", []byte("x"), store.Meta{}); err != nil {
		t.Errorf("put with one replica up: %v, want sloppy-quorum accept", err)
	}
}

func TestGrantCoversAllReplicas(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	if err := c.lake.Grant(ref, "svc-export"); err != nil {
		t.Fatal(err)
	}
	// The grant is on the shared key, so reading via either replica
	// works — including after the primary goes down.
	c.kill(c.lake.placement(ref)[0])
	if _, err := c.lake.Get(ref, "svc-export"); err != nil {
		t.Fatalf("granted read via surviving replica: %v", err)
	}
}

func TestPingQuorumSemantics(t *testing.T) {
	c := newCluster(t, 3, 2)
	if err := c.lake.Ping(); err != nil {
		t.Fatalf("healthy cluster ping: %v", err)
	}
	c.kill(ShardName(0))
	if err := c.lake.Ping(); err != nil {
		t.Errorf("ping with 1 of 3 down at R=2 = %v, want nil (quorum holds)", err)
	}
	if !c.lake.QuorumHolds() {
		t.Error("QuorumHolds false with 1 of 3 down at R=2")
	}
	c.kill(ShardName(1))
	if err := c.lake.Ping(); err == nil {
		t.Error("ping with 2 of 3 down at R=2 succeeded, want quorum-lost error")
	}
}

func TestListAndCountDeduplicateReplicas(t *testing.T) {
	c := newCluster(t, 3, 2)
	for i := 0; i < 10; i++ {
		c.put(t, fmt.Sprintf("patient-%02d", i))
	}
	if got := c.lake.Count(); got != 10 {
		t.Errorf("Count = %d, want 10 (replicas must not double-count)", got)
	}
	if got := len(c.lake.List("shard-test", "g")); got != 10 {
		t.Errorf("List = %d entries, want 10", got)
	}
}

func TestAddShardRebalances(t *testing.T) {
	c := newCluster(t, 3, 2)
	refs := make([]string, 60)
	for i := range refs {
		refs[i] = c.put(t, fmt.Sprintf("patient-%02d", i))
	}
	extra := store.NewDataLake(c.kms, "svc-storage")
	if err := c.lake.AddShard(ShardName(3), extra); err != nil {
		t.Fatal(err)
	}
	if err := c.lake.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.lake.Moved() == 0 {
		t.Error("rebalance moved nothing onto the new shard")
	}
	if extra.Count() == 0 {
		t.Error("new shard holds no objects after rebalance")
	}
	c.shards[ShardName(3)] = extra
	for _, ref := range refs {
		if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
			t.Fatalf("get %s after rebalance: %v", ref, err)
		}
		if got := c.holders(ref); len(got) != 2 {
			t.Fatalf("%s held by %v after rebalance, want exactly R=2 (old copies evicted)", ref, got)
		}
	}
	if _, div := c.lake.VerifyConvergence(); len(div) != 0 {
		t.Fatalf("divergent after rebalance: %v", div)
	}
}

func TestRemoveShardDrainsIt(t *testing.T) {
	c := newCluster(t, 4, 2)
	refs := make([]string, 60)
	for i := range refs {
		refs[i] = c.put(t, fmt.Sprintf("patient-%02d", i))
	}
	leaving := ShardName(3)
	if err := c.lake.RemoveShard(leaving); err != nil {
		t.Fatal(err)
	}
	if err := c.lake.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.lake.Shards() {
		if name == leaving {
			t.Fatalf("%s still attached after removal", leaving)
		}
	}
	delete(c.shards, leaving)
	for _, ref := range refs {
		if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
			t.Fatalf("get %s after shard removal: %v", ref, err)
		}
		if got := c.holders(ref); len(got) != 2 {
			t.Fatalf("%s held by %v, want R=2 among survivors", ref, got)
		}
	}
	if _, div := c.lake.VerifyConvergence(); len(div) != 0 {
		t.Fatalf("divergent after removal: %v", div)
	}
}

func TestRemoveShardRefusedBelowReplicationFactor(t *testing.T) {
	c := newCluster(t, 2, 2)
	if err := c.lake.RemoveShard(ShardName(0)); err == nil {
		t.Error("removing a shard below R succeeded, want refusal")
	}
}

func TestReadsCorrectMidMigration(t *testing.T) {
	// Make migration slow enough to observe by giving the new shard a
	// service delay, then read every object while it runs.
	c := newCluster(t, 3, 2)
	refs := make([]string, 40)
	for i := range refs {
		refs[i] = c.put(t, fmt.Sprintf("patient-%02d", i))
	}
	extra := store.NewDataLake(c.kms, "svc-storage")
	extra.SetServiceTime(2 * time.Millisecond)
	if err := c.lake.AddShard(ShardName(3), extra); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for c.lake.Rebalancing() {
		for _, ref := range refs {
			if _, err := c.lake.Get(ref, "svc-storage"); err != nil {
				t.Fatalf("mid-migration get %s: %v", ref, err)
			}
			reads++
		}
	}
	if err := c.lake.WaitRebalance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Skip("migration finished before any mid-flight read (timing)")
	}
}

func TestSingleShardMatchesDataLakeSemantics(t *testing.T) {
	c := newCluster(t, 1, 1)
	ref := c.put(t, "patient-1")
	if got := c.lake.Count(); got != 1 {
		t.Errorf("Count = %d", got)
	}
	meta, err := c.lake.Meta(ref)
	if err != nil || meta.Tenant != "shard-test" {
		t.Errorf("Meta = %+v, %v", meta, err)
	}
	if err := c.lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := c.lake.Get(ref, "svc-storage"); !errors.Is(err, store.ErrDeleted) {
		t.Errorf("get after delete = %v, want ErrDeleted", err)
	}
	if got := c.lake.Count(); got != 0 {
		t.Errorf("Count after delete = %d (tombstones must not count)", got)
	}
}

// TestSecureDeleteRacesReadersOfSharedCiphertext pins the contract that
// lets replicas share one ciphertext array (store.Sealed): SecureDelete
// shreds the key and drops references, it never writes to the bytes. Per
// round one replica is evicted so the quorum read repairs it — from the
// shared slice — while SecureDelete runs and other readers hit the same
// ref through the cluster and directly on both replicas. Run with -race:
// no reader may see anything but the exact payload or a refusal, the
// tombstone must win on every replica, and nothing opens afterwards.
func TestSecureDeleteRacesReadersOfSharedCiphertext(t *testing.T) {
	c := newCluster(t, 3, 2)
	for round := 0; round < 40; round++ {
		subject := fmt.Sprintf("patient-%d", round)
		want := "payload for " + subject
		ref := c.put(t, subject)
		place := c.lake.placement(ref)
		captured, err := c.shards[place[0]].GetSealed(ref)
		if err != nil {
			t.Fatal(err)
		}
		c.shards[place[1]].Evict(ref) // the first quorum read must repair this replica

		check := func(who string, pt []byte, err error) {
			if err == nil && string(pt) != want {
				t.Errorf("round %d: %s read %q, want %q or a refusal", round, who, pt, want)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		run := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		run(func() {
			for i := 0; i < 20; i++ {
				pt, err := c.lake.Get(ref, "svc-storage") // quorum read + read-repair
				check("cluster Get", pt, err)
			}
		})
		for _, name := range place {
			shard := c.shards[name]
			run(func() {
				for i := 0; i < 20; i++ {
					pt, err := shard.Get(ref, "svc-storage")
					check(name+" Get", pt, err)
					if s, err := shard.GetSealed(ref); err == nil && !s.Deleted {
						pt, err := c.lake.sealer.Open(s, "svc-storage")
						check(name+" GetSealed+Open", pt, err)
					}
				}
			})
		}
		run(func() {
			if err := c.lake.SecureDelete(ref); err != nil {
				t.Errorf("round %d: SecureDelete: %v", round, err)
			}
		})
		close(start)
		wg.Wait()

		if _, err := c.lake.Get(ref, "svc-storage"); !errors.Is(err, store.ErrDeleted) {
			t.Fatalf("round %d: get after delete = %v, want ErrDeleted", round, err)
		}
		for _, name := range place {
			s, err := c.shards[name].GetSealed(ref)
			if err != nil || !s.Deleted || len(s.Ciphertext) != 0 {
				t.Fatalf("round %d: replica %s after delete = %+v, %v; want a bare tombstone", round, name, s, err)
			}
		}
		// A copy captured before the deletion still has its bytes (they
		// are never zeroed) but can no longer be opened: the key is gone.
		if pt, err := c.lake.sealer.Open(captured, "svc-storage"); err == nil {
			t.Fatalf("round %d: captured copy opened to %q after secure delete", round, pt)
		}
	}
}

// TestShardBalanceAtBenchShape pins what the ring buys at the shape the
// platform runs: 4 shards × R=2 under seed 1907, random reference ids.
// The busiest shard may hold at most 15% more objects than the mean.
func TestShardBalanceAtBenchShape(t *testing.T) {
	c := newCluster(t, 4, 2)
	for i := 0; i < 4000; i++ {
		c.put(t, fmt.Sprintf("pat-%04d", i))
	}
	total, max := 0, 0
	counts := c.lake.ShardObjects()
	for _, n := range counts {
		total += n
		if n > max {
			max = n
		}
	}
	if skew := float64(max) / (float64(total) / float64(len(counts))); skew > 1.15 {
		t.Fatalf("max/mean shard objects = %.3f, want <= 1.15: %v", skew, counts)
	}
}

// TestMetaReadsOneCopyWithoutRepair: Meta answers from the first
// reachable copy (meta is fixed at Seal), so one replica down costs
// nothing and nothing is repaired; with every placement down it is
// unavailable, not missing.
func TestMetaReadsOneCopyWithoutRepair(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	placed := c.lake.placement(ref)
	c.kill(placed[0])
	if meta, err := c.lake.Meta(ref); err != nil || meta.ContentType != "test" {
		t.Fatalf("Meta with one replica down = %+v, %v", meta, err)
	}
	c.heal(placed[0])
	c.shards[placed[0]].Evict(ref) // a stale replica Get would repair
	if meta, err := c.lake.Meta(ref); err != nil || meta.ContentType != "test" {
		t.Fatalf("Meta with one replica missing = %+v, %v", meta, err)
	}
	if got := c.lake.Repairs(); got != 0 {
		t.Errorf("Meta repaired %d replicas, want none", got)
	}
	if _, err := c.shards[placed[0]].GetSealed(ref); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Meta re-installed the evicted replica: %v", err)
	}
	for _, name := range c.lake.Shards() {
		c.kill(name)
	}
	if _, err := c.lake.Meta(ref); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Meta with every shard down = %v, want ErrUnavailable", err)
	}
	for _, name := range c.lake.Shards() {
		c.heal(name)
	}
	if _, err := c.lake.Meta("ref-ghost"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Meta of unknown ref = %v, want ErrNotFound", err)
	}
}

// TestMetaOfTombstone: a tombstone keeps its record's meta.
func TestMetaOfTombstone(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	if err := c.lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	meta, err := c.lake.Meta(ref)
	if err != nil || meta.ContentType != "test" || meta.Group != "g" {
		t.Fatalf("Meta of tombstone = %+v, %v", meta, err)
	}
}

// TestMetaRebalanceFallback: mid-rebalance the only copy may sit on a
// shard outside the placement; Meta finds it by scan and moves nothing.
func TestMetaRebalanceFallback(t *testing.T) {
	c := newCluster(t, 3, 2)
	ref := c.put(t, "patient-1")
	placed := c.lake.placement(ref)
	s, err := c.shards[placed[0]].GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	var outside string
	for _, name := range c.lake.Shards() {
		if name != placed[0] && name != placed[1] {
			outside = name
		}
	}
	if err := c.shards[outside].PutSealed(s); err != nil {
		t.Fatal(err)
	}
	c.shards[placed[0]].Evict(ref)
	c.shards[placed[1]].Evict(ref)
	meta, err := c.lake.Meta(ref)
	if err != nil || meta.ContentType != "test" {
		t.Fatalf("Meta via scan = %+v, %v", meta, err)
	}
	if got := c.holders(ref); len(got) != 1 || got[0] != outside {
		t.Errorf("holders after Meta = %v, want only %s", got, outside)
	}
}
