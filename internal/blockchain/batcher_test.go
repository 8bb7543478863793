package blockchain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"healthcloud/internal/telemetry"
)

// submitN pushes n transactions through the batcher from workers
// concurrent goroutines and returns the submitted IDs plus any errors.
func submitN(t *testing.T, b *Batcher, n, workers int) []string {
	t.Helper()
	ids := make([]string, n)
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = NewTransaction(EventDataReceipt, "svc", fmt.Sprintf("h-%d", i), nil, nil)
		ids[i] = txs[i].ID
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = b.Submit(txs[i], testTimeout)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	return ids
}

// holdGate is an endorsement rule that parks every transaction marked
// Meta["hold"] until release is closed. Submitting one keeps a commit in
// flight for as long as the test wants, so later submissions must queue
// behind it — the batcher has no timer to park them with.
type holdGate struct {
	entered  chan struct{} // closed when a held endorsement first blocks
	release  chan struct{}
	once     sync.Once
	onceOpen sync.Once
}

// open releases every held endorsement. Idempotent, so tests defer it
// (after deferring Batcher.Close) to keep a failed test from hanging.
func (g *holdGate) open() { g.onceOpen.Do(func() { close(g.release) }) }

func newHoldGate() *holdGate {
	return &holdGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *holdGate) validate(tx *Transaction) error {
	if tx.Meta["hold"] == "yes" {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return nil
}

// holdCommit submits a held transaction and returns once its commit is
// in flight; the returned channel yields that Submit's result.
func (g *holdGate) holdCommit(t *testing.T, b *Batcher) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	tx := NewTransaction(EventDataReceipt, "svc", "held", nil, map[string]string{"hold": "yes"})
	go func() { res <- b.Submit(tx, testTimeout) }()
	select {
	case <-g.entered:
	case <-time.After(testTimeout):
		t.Fatal("held commit never reached endorsement")
	}
	return res
}

// queueBehind submits txs concurrently and returns once all of them sit
// in the batcher's queue; wait collects their results.
func queueBehind(t *testing.T, b *Batcher, txs []Transaction) (wait func() []error) {
	t.Helper()
	errs := make([]error, len(txs))
	var wg sync.WaitGroup
	for i, tx := range txs {
		wg.Add(1)
		go func(i int, tx Transaction) {
			defer wg.Done()
			errs[i] = b.Submit(tx, testTimeout)
		}(i, tx)
	}
	deadline := time.Now().Add(testTimeout)
	for b.QueueDepth() < len(txs) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := b.QueueDepth(); d != len(txs) {
		t.Fatalf("queue depth %d, want %d", d, len(txs))
	}
	return func() []error { wg.Wait(); return errs }
}

func receipts(n int) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = NewTransaction(EventDataReceipt, "svc", fmt.Sprintf("h-%d", i), nil, nil)
	}
	return txs
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestBatcherLoneSubmitCommitsAtOnce pins natural group commit's idle
// case: a transaction arriving at an idle batcher is committed alone,
// immediately. Each sequential Submit is its own commit, and its latency
// is the network's own (interleaved direct submits, compared by median) —
// a batch timer of the old 5 ms default would show as the difference.
func TestBatcherLoneSubmitCommitsAtOnce(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	b := NewBatcher(n, BatcherConfig{})
	defer b.Close()

	const rounds = 21
	var direct, batched []time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := n.Submit(NewTransaction(EventDataReceipt, "svc", "d", nil, nil), testTimeout); err != nil {
			t.Fatal(err)
		}
		direct = append(direct, time.Since(start))
		start = time.Now()
		if err := b.Submit(NewTransaction(EventDataReceipt, "svc", "b", nil, nil), testTimeout); err != nil {
			t.Fatal(err)
		}
		batched = append(batched, time.Since(start))
	}
	if st := b.Stats(); st.Commits != rounds || st.Txs != rounds {
		t.Errorf("stats = %+v, want %d singleton commits", st, rounds)
	}
	if d, bt := median(direct), median(batched); bt > d+3*time.Millisecond {
		t.Errorf("lone batched submit median %v vs direct %v: something is waiting on a timer", bt, d)
	}
}

// TestBatcherGroupsBehindInflightCommit pins the loaded case: K
// submitters that arrive while a commit is in flight land in ONE group
// of K, split only by MaxBatch.
func TestBatcherGroupsBehindInflightCommit(t *testing.T) {
	for _, tc := range []struct {
		maxBatch, k int
		commits     uint64 // the held singleton + ceil(k/maxBatch) groups
	}{
		{maxBatch: 64, k: 5, commits: 2},
		{maxBatch: 3, k: 5, commits: 3},
	} {
		t.Run(fmt.Sprintf("max%d", tc.maxBatch), func(t *testing.T) {
			gate := newHoldGate()
			n := newTestNetwork(t, 3, 2, WithValidation(gate.validate))
			b := NewBatcher(n, BatcherConfig{MaxBatch: tc.maxBatch})
			defer b.Close()
			defer gate.open()

			held := gate.holdCommit(t, b)
			wait := queueBehind(t, b, receipts(tc.k))
			gate.open()
			if err := <-held; err != nil {
				t.Fatalf("held submit: %v", err)
			}
			for i, err := range wait() {
				if err != nil {
					t.Errorf("queued submit %d: %v", i, err)
				}
			}
			st := b.Stats()
			if st.Commits != tc.commits || st.Txs != uint64(tc.k+1) || st.Fallbacks != 0 {
				t.Errorf("stats = %+v, want %d commits of %d txs", st, tc.commits, tc.k+1)
			}
		})
	}
}

// TestBatcherFlushDrainsQueue proves Flush commits everything queued on
// the caller's goroutine, even while the committer is busy with an
// in-flight commit.
func TestBatcherFlushDrainsQueue(t *testing.T) {
	gate := newHoldGate()
	n := newTestNetwork(t, 3, 2, WithValidation(gate.validate))
	b := NewBatcher(n, BatcherConfig{})
	defer b.Close()
	defer gate.open()

	held := gate.holdCommit(t, b)
	txs := receipts(4)
	wait := queueBehind(t, b, txs)
	b.Flush() // the held commit is still parked: only Flush can have committed these
	for i, err := range wait() {
		if err != nil {
			t.Errorf("flushed submit %d: %v", i, err)
		}
	}
	p, _ := n.Peer("peer-0")
	for _, tx := range txs {
		if !p.Ledger().Committed(tx.ID) {
			t.Errorf("tx %s not committed by Flush", tx.ID)
		}
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatalf("held submit: %v", err)
	}
}

// TestBatcherStress hammers the batcher from 16 goroutines and asserts
// exactly-once ledger semantics: every submitted transaction is
// committed on every peer, none twice, none lost.
func TestBatcherStress(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	b := NewBatcher(n, BatcherConfig{MaxBatch: 64})
	defer b.Close()

	const total, workers = 200, 16
	ids := submitN(t, b, total, workers)

	for _, peerID := range n.PeerIDs() {
		p, _ := n.Peer(peerID)
		if got := p.Ledger().TxCount(); got != total {
			t.Errorf("%s: TxCount = %d, want %d (lost or duplicated events)", peerID, got, total)
		}
		for _, id := range ids {
			if !p.Ledger().Committed(id) {
				t.Errorf("%s: tx %s not committed", peerID, id)
			}
		}
		if err := p.Ledger().VerifyChain(); err != nil {
			t.Errorf("%s: chain: %v", peerID, err)
		}
	}
	st := b.Stats()
	// Threshold, not equality: a poison-free run counts each tx exactly
	// once, but timing-dependent fallback re-submissions may only ever
	// push the counter up — losing a tx is the failure being pinned.
	if st.Txs < total {
		t.Errorf("stats: txs = %d, want >= %d", st.Txs, total)
	}
	if st.Commits == 0 || st.Commits > total {
		t.Errorf("stats: commits = %d out of range (0,%d]", st.Commits, total)
	}
	if st.MeanBatchSize() <= 1 {
		t.Errorf("mean batch size %.2f — batching never coalesced under 16 concurrent producers", st.MeanBatchSize())
	}
}

// TestBatcherGroupEndorsementVerified proves group commits still pass
// real endorsement checks: a tampered group envelope is rejected by
// every peer's pump.
func TestBatcherGroupEndorsementVerified(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	txs := []Transaction{
		NewTransaction(EventDataReceipt, "svc", "h-a", nil, nil),
		NewTransaction(EventDataReceipt, "svc", "h-b", nil, nil),
	}
	group, err := n.endorseGroup(txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.checkGroupEndorsements(txs, group); err != nil {
		t.Fatalf("valid group rejected: %v", err)
	}
	// Tamper with a transaction after endorsement — digest changes.
	txs[1].Handle = "h-evil"
	if err := n.checkGroupEndorsements(txs, group); !errors.Is(err, ErrBadEndorsement) {
		t.Errorf("tampered group: got %v, want ErrBadEndorsement", err)
	}
	// Reorder the batch — GroupDigest binds order.
	txs[1].Handle = "h-b"
	txs[0], txs[1] = txs[1], txs[0]
	if err := n.checkGroupEndorsements(txs, group); !errors.Is(err, ErrBadEndorsement) {
		t.Errorf("reordered group: got %v, want ErrBadEndorsement", err)
	}
	// Under-endorsed group.
	if err := n.checkGroupEndorsements(txs, nil); !errors.Is(err, ErrNotEndorsed) {
		t.Errorf("empty group: got %v, want ErrNotEndorsed", err)
	}
}

// TestBatcherPoisonFallback proves one rejected transaction inside a
// group cannot fail its neighbors: the batcher falls back to individual
// submission and only the poison waiter gets the error.
func TestBatcherPoisonFallback(t *testing.T) {
	gate := newHoldGate()
	reject := func(tx *Transaction) error {
		if tx.Meta["poison"] == "yes" {
			return errors.New("business rule says no")
		}
		return gate.validate(tx)
	}
	n := newTestNetwork(t, 3, 2, WithValidation(reject))
	b := NewBatcher(n, BatcherConfig{MaxBatch: 3})
	defer b.Close()
	defer gate.open()

	good1 := NewTransaction(EventDataReceipt, "svc", "g1", nil, nil)
	poison := NewTransaction(EventDataReceipt, "svc", "p", nil, map[string]string{"poison": "yes"})
	good2 := NewTransaction(EventDataReceipt, "svc", "g2", nil, nil)

	// Queue all three behind an in-flight commit so they form one group.
	held := gate.holdCommit(t, b)
	wait := queueBehind(t, b, []Transaction{good1, poison, good2})
	gate.open()
	if err := <-held; err != nil {
		t.Fatalf("held submit: %v", err)
	}
	errs := wait()

	if errs[0] != nil || errs[2] != nil {
		t.Errorf("good txs failed alongside poison: %v / %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrTxRejected) {
		t.Errorf("poison tx: got %v, want ErrTxRejected", errs[1])
	}
	p, _ := n.Peer("peer-0")
	if !p.Ledger().Committed(good1.ID) || !p.Ledger().Committed(good2.ID) {
		t.Error("good txs not committed after poison fallback")
	}
	if p.Ledger().Committed(poison.ID) {
		t.Error("poison tx committed")
	}
	if st := b.Stats(); st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want exactly 1 (one poisoned group of 3)", st.Fallbacks)
	}
}

// TestBatcherCloseDrains proves Close commits every accepted
// transaction and signals every waiter — nothing is dropped or left
// hanging at shutdown.
func TestBatcherCloseDrains(t *testing.T) {
	gate := newHoldGate()
	n := newTestNetwork(t, 3, 2, WithValidation(gate.validate))
	b := NewBatcher(n, BatcherConfig{})
	defer gate.open()

	// Eight waiters queued behind an in-flight commit when Close arrives.
	const total = 8
	txs := receipts(total)
	ids := make([]string, total)
	for i, tx := range txs {
		ids[i] = tx.ID
	}
	held := gate.holdCommit(t, b)
	wait := queueBehind(t, b, txs)
	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	gate.open()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain within 10s")
	}
	if err := <-held; err != nil {
		t.Errorf("in-flight submit got error at close: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Errorf("waiter %d got error at close: %v", i, err)
		}
	}
	p, _ := n.Peer("peer-0")
	for _, id := range ids {
		if !p.Ledger().Committed(id) {
			t.Errorf("tx %s dropped at close", id)
		}
	}
	// After close, submits are refused rather than silently dropped.
	if err := b.Submit(NewTransaction(EventDataReceipt, "svc", "late", nil, nil), time.Second); !errors.Is(err, ErrBatcherClosed) {
		t.Errorf("post-close submit: got %v, want ErrBatcherClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherTelemetry checks the batcher's gauges, histograms and
// counters land in the registry under the network label.
func TestBatcherTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(8, 64, telemetry.DefaultPolicy())
	n := newTestNetwork(t, 3, 2, WithTelemetry(reg, tr))
	b := NewBatcher(n, BatcherConfig{MaxBatch: 8, Registry: reg, Tracer: tr})
	defer b.Close()

	submitN(t, b, 20, 8)

	snap := reg.Snapshot()
	label := `{network="provenance"}`
	if got := snap.Counters["ledger_group_txs_total"+label]; got < 20 {
		t.Errorf("ledger_group_txs_total = %d, want >= 20", got)
	}
	if got := snap.Counters["ledger_group_commits_total"+label]; got == 0 {
		t.Error("ledger_group_commits_total not incremented")
	}
	h, ok := snap.Histograms["ledger_batch_size"+label]
	if !ok || h.Count == 0 {
		t.Fatalf("ledger_batch_size histogram missing or empty: %+v", h)
	}
	if lat := snap.Histograms["ledger_group_commit_seconds"+label]; lat.Count == 0 {
		t.Error("ledger_group_commit_seconds histogram empty")
	}
	if _, ok := snap.Gauges["ledger_batch_queue_depth"+label]; !ok {
		t.Error("ledger_batch_queue_depth gauge missing")
	}
}

// TestParallelEndorseMatchesSerialSemantics pins the parallel EndorseAll
// behavior: the policy is satisfied with exactly policyK endorsements, a
// rejecting fast-path peer is replaced by the serial fallback peer, and
// a universally rejected tx returns the rejection reason.
func TestParallelEndorseMatchesSerialSemantics(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	tx := NewTransaction(EventDataReceipt, "svc", "h", nil, nil)
	if err := n.EndorseAll(&tx); err != nil {
		t.Fatal(err)
	}
	if len(tx.Endorsements) != 2 {
		t.Errorf("endorsements = %d, want exactly policyK=2", len(tx.Endorsements))
	}
	if err := n.checkEndorsements(&tx); err != nil {
		t.Errorf("parallel endorsements fail policy check: %v", err)
	}

	// Make peer-0 reject: the fast path loses one signature and the
	// serial fallback must pick up peer-2 to still meet the policy.
	n2 := newTestNetwork(t, 3, 2)
	n2.peers["peer-0"].validate = func(tx *Transaction) error { return errors.New("no") }
	tx2 := NewTransaction(EventDataReceipt, "svc", "h2", nil, nil)
	if err := n2.EndorseAll(&tx2); err != nil {
		t.Fatalf("fallback path: %v", err)
	}
	got := map[string]bool{}
	for _, e := range tx2.Endorsements {
		got[e.PeerID] = true
	}
	if !got["peer-1"] || !got["peer-2"] || got["peer-0"] {
		t.Errorf("fallback endorsers = %v, want peer-1+peer-2", got)
	}
	if err := n2.checkEndorsements(&tx2); err != nil {
		t.Errorf("fallback endorsements fail policy check: %v", err)
	}

	rejectAll := errors.New("nope")
	n3 := newTestNetwork(t, 3, 2, WithValidation(func(tx *Transaction) error { return rejectAll }))
	tx3 := NewTransaction(EventDataReceipt, "svc", "h3", nil, nil)
	if err := n3.EndorseAll(&tx3); !errors.Is(err, ErrTxRejected) {
		t.Errorf("universally rejected tx: got %v, want ErrTxRejected", err)
	}
}
