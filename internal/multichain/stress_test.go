package multichain

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
)

// TestMultiChainStress hammers a 4-channel batched fabric with 16
// concurrent submitters, then audits everything: no lost or duplicated
// transactions, every peer chain on every channel verifies, every
// channel took traffic, and per-record total order held. CI runs this
// 3× under the race detector.
func TestMultiChainStress(t *testing.T) {
	const (
		workers   = 16
		perWorker = 10
		channels  = 4
	)
	m := newFabric(t, channels, nil)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				// Every worker owns its keys and submits each key's events
				// sequentially, so per-record order is well-defined.
				handle := fmt.Sprintf("stress-w%02d-r%d", w, j%4)
				tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest",
					handle, nil, map[string]string{"worker": fmt.Sprintf("%d", w), "j": fmt.Sprintf("%d", j)})
				if err := m.Submit(tx, 10*time.Second); err != nil {
					errs[w] = fmt.Errorf("worker %d submit %d: %w", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()

	if got, want := m.TxCount(), workers*perWorker; got != want {
		t.Fatalf("TxCount = %d, want %d", got, want)
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	for _, ch := range m.Channels() {
		blocks, _ := ch.Net.BlockCutStats()
		if ch.ledger().TxCount() == 0 || blocks == 0 {
			t.Fatalf("channel %s idle under stress: %d txs, %d blocks",
				ch.Name, ch.ledger().TxCount(), blocks)
		}
	}
	// Spot-check total order for every worker's first record: events
	// must come back in j order.
	aud := m.Auditor()
	for w := 0; w < workers; w++ {
		handle := fmt.Sprintf("stress-w%02d-r0", w)
		entries, err := aud.TotalOrder(handle)
		if err != nil {
			t.Fatalf("TotalOrder(%s): %v", handle, err)
		}
		lastJ := -1
		for _, e := range entries {
			j := 0
			fmt.Sscanf(e.Tx.Meta["j"], "%d", &j)
			if j <= lastJ {
				t.Fatalf("%s total order broken: j %d after %d", handle, j, lastJ)
			}
			lastJ = j
		}
	}
}
