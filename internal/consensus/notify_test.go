package consensus

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// drainApply consumes every node's apply channel so long runs never
// fill it (each node closes its channel when it stops).
func drainApply(c *Cluster) {
	for _, n := range c.Nodes {
		go func(n *Node) {
			for range n.Apply() {
			}
		}(n)
	}
}

// TestFollowersApplyWithoutWaitingForHeartbeat pins the immediate
// leaderCommit broadcast: with the heartbeat tick slowed to 200 ms, all
// three nodes must still apply a proposal within a small fraction of a
// tick (median over 50 proposals). Followers that only learned the
// commit index from the next tick would take ~100-200 ms each.
func TestFollowersApplyWithoutWaitingForHeartbeat(t *testing.T) {
	const tick = 200 * time.Millisecond
	c := NewCluster(3, Config{
		HeartbeatInterval:  3 * tick, // nodes tick at HeartbeatInterval/3
		ElectionTimeoutMin: 8 * tick,
		ElectionTimeoutMax: 10 * tick,
	})
	t.Cleanup(c.Stop)
	if _, err := c.WaitForLeader(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	const proposals = 50
	lat := make([]time.Duration, 0, proposals)
	for i := 0; i < proposals; i++ {
		start := time.Now()
		idx, err := c.ProposeAndWait([]byte("tx"), testTimeout)
		if err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
		for _, n := range c.Nodes {
			for applied := uint64(0); applied < idx; {
				select {
				case com := <-n.Apply():
					applied = com.Entry.Index
				case <-time.After(testTimeout):
					t.Fatalf("proposal %d: %s never applied index %d", i, n.ID(), idx)
				}
			}
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[proposals/2]; med > tick/4 {
		t.Errorf("median propose-to-applied-everywhere %v with a %v heartbeat tick: followers are waiting for the tick", med, tick)
	}
}

// proposeBytes is the mean heap bytes allocated per committed proposal
// over n proposals (whole process: includes the nodes' own messages).
func proposeBytes(t *testing.T, c *Cluster, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := c.ProposeAndWait([]byte("tx"), testTimeout); err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestProposeCostIndependentOfLogLength pins the O(1) TermAt check: the
// bytes a proposal allocates must not grow with the (never-compacted)
// log. Copying the log to compare one term cost ~200 KB per proposal at
// 5 000 entries.
func TestProposeCostIndependentOfLogLength(t *testing.T) {
	c := newTestCluster(t, 3)
	drainApply(c)
	if _, err := c.WaitForLeader(testTimeout); err != nil {
		t.Fatal(err)
	}
	proposeBytes(t, c, 50) // warm up
	short := proposeBytes(t, c, 200)
	proposeBytes(t, c, 5000) // grow the log
	long := proposeBytes(t, c, 200)
	if long > 2*short+16<<10 {
		t.Errorf("bytes per proposal grew with the log: %.0f B at ~250 entries, %.0f B at ~5 450", short, long)
	}
	t.Logf("bytes per proposal: %.0f at ~250 entries, %.0f at ~5 450", short, long)
}

func TestTermAt(t *testing.T) {
	c := newTestCluster(t, 3)
	idx, err := c.ProposeAndWait([]byte("tx"), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader after a committed proposal")
	}
	if got := l.TermAt(idx); got == 0 || got != l.Term() {
		t.Errorf("TermAt(%d) = %d, want the leader's term %d", idx, got, l.Term())
	}
	if got := l.TermAt(0); got != 0 {
		t.Errorf("TermAt(0) = %d, want 0 for the sentinel", got)
	}
	if got := l.TermAt(idx + 1); got != 0 {
		t.Errorf("TermAt past the log = %d, want 0", got)
	}
}

// TestAwaitCommitWakesOnStepDownAndStop covers the non-commit exits: a
// leader cut off from its followers cannot commit, and AwaitCommit must
// return false when it is deposed or stopped rather than at the timeout.
func TestAwaitCommitWakesOnStepDownAndStop(t *testing.T) {
	c := newTestCluster(t, 3)
	l, err := c.WaitForLeader(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Isolate(l.ID())
	idx, _, err := l.Propose([]byte("stranded"))
	if err != nil {
		t.Fatal(err)
	}
	if l.AwaitCommit(idx, 20*time.Millisecond) {
		t.Fatal("isolated leader committed")
	}
	res := make(chan bool, 1)
	go func() { res <- l.AwaitCommit(idx, time.Minute) }()
	// Let the majority elect a newer term, then heal: l hears of it and
	// steps down with its stranded entry still uncommitted.
	deadline := time.Now().Add(testTimeout)
	for deposed := false; !deposed; {
		if time.Now().After(deadline) {
			t.Fatal("majority never elected a new leader")
		}
		time.Sleep(5 * time.Millisecond)
		for _, n := range c.Nodes {
			deposed = deposed || (n != l && n.Role() == Leader && n.Term() > l.Term())
		}
	}
	c.Net.Heal()
	select {
	case ok := <-res:
		if ok {
			t.Error("AwaitCommit reported a commit for an entry its deposed leader never committed")
		}
	case <-time.After(testTimeout):
		t.Fatal("AwaitCommit still blocked after the leader was deposed")
	}

	l2, err := c.WaitForLeader(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Isolate(l2.ID())
	idx2, _, err := l2.Propose([]byte("stranded-2"))
	if err != nil {
		t.Fatal(err)
	}
	go func() { res <- l2.AwaitCommit(idx2, time.Minute) }()
	l2.Stop()
	select {
	case ok := <-res:
		if ok {
			t.Error("AwaitCommit reported a commit on a stopped, isolated leader")
		}
	case <-time.After(testTimeout):
		t.Fatal("AwaitCommit still blocked after Stop")
	}
}
