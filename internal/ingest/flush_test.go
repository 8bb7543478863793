package ingest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
)

// TestCloseFlushesBatchedProvenance is the regression test for the
// batcher-flush-on-Close fix. The first provenance event's commit is
// parked inside endorsement, so the batcher's committer is busy and the
// other three workers' events sit in its queue. While that commit stays
// parked, only Pipeline.Close's Flush can commit the queued events: the
// ledger must show them before the gate opens, and once it does every
// upload reaches its stored terminal state — nothing dropped or left
// un-acked at shutdown.
func TestCloseFlushesBatchedProvenance(t *testing.T) {
	var mu sync.Mutex
	heldID := ""
	entered := make(chan struct{}) // closed once the first commit is parked
	release := make(chan struct{})
	holdFirst := func(tx *blockchain.Transaction) error {
		mu.Lock()
		if heldID == "" {
			heldID = tx.ID
			close(entered)
		}
		held := heldID == tx.ID
		mu.Unlock()
		if held {
			<-release
		}
		return nil
	}
	net, err := blockchain.NewNetwork("provenance", []string{"p0", "p1", "p2"}, 2,
		blockchain.WithValidation(holdFirst))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	b := blockchain.NewBatcher(net, blockchain.BatcherConfig{})
	t.Cleanup(b.Close)

	r := newRigWith(t, bus.New(), b)
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(release) }) }
	t.Cleanup(open) // registered last, runs first: a failed test must not hang the closes

	const uploads = 4 // one per worker: one commit in flight, three queued
	key, err := r.p.RegisterClient("clinic-1")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, uploads)
	for i := 0; i < uploads; i++ {
		pid := fmt.Sprintf("patient-%d", i)
		r.consents.Grant(pid, "study-1", consent.PurposeResearch, 0)
		ids[i], err = r.p.Upload("clinic-1", "study-1", patientBundle(t, key, "clinic-1", pid, "10598"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The first event must be in flight alone before the rest
			// arrive, or they could share its group instead of queueing.
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("first provenance event never reached endorsement")
			}
		}
	}

	// Every worker must be parked in the provenance stage before Close.
	deadline := time.Now().Add(10 * time.Second)
	for b.QueueDepth() < uploads-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := b.QueueDepth(); d != uploads-1 {
		t.Fatalf("batcher queue depth %d, want %d workers queued behind the held commit", d, uploads-1)
	}

	done := make(chan struct{})
	go func() { r.p.Close(); close(done) }()
	p, err := net.Peer("p0")
	if err != nil {
		t.Fatal(err)
	}
	for p.Ledger().TxCount() < uploads-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := p.Ledger().TxCount(); got != uploads-1 {
		t.Fatalf("ledger has %d events while the committer is parked, want %d flushed by Close", got, uploads-1)
	}
	open()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung: batched provenance events left un-acked")
	}

	for i, id := range ids {
		st, err := r.p.Status(id)
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if st.State != StateStored {
			t.Errorf("upload %d state = %q, want %q (event dropped at shutdown)", i, st.State, StateStored)
		}
	}
	if got := p.Ledger().TxCount(); got != uploads {
		t.Errorf("ledger has %d provenance events, want %d", got, uploads)
	}
}
