// External test package: the finality benchmarks attach a file-backed
// WAL from internal/durable, which imports blockchain.
package blockchain_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/durable"
	"healthcloud/internal/hckrypto"
)

// BenchmarkEndorseGroup measures the batched endorsement hot path — one
// group digest over 16 transactions plus one signature — under each
// signature scheme. Together with BenchmarkSign/BenchmarkVerify in
// internal/hckrypto this is the per-op evidence behind experiment E22.
func BenchmarkEndorseGroup(b *testing.B) {
	for _, scheme := range []hckrypto.Scheme{hckrypto.SchemeRSAPSS, hckrypto.SchemeEd25519} {
		name := "rsa"
		if scheme == hckrypto.SchemeEd25519 {
			name = "ed25519"
		}
		b.Run(name, func(b *testing.B) {
			peer, err := blockchain.NewPeerWithScheme("bench", scheme, nil)
			if err != nil {
				b.Fatal(err)
			}
			txs := make([]blockchain.Transaction, 16)
			for i := range txs {
				txs[i] = blockchain.NewTransaction(blockchain.EventDataReceipt, "bench",
					fmt.Sprintf("h-%d", i), nil, map[string]string{"k": "v"})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := peer.EndorseGroup(txs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// finalityNetwork is the bench platform's ledger shape: 3 Ed25519 peers,
// 2-of-3 endorsement, optionally with every peer committing through one
// file-backed WAL (real fsync under b.TempDir()).
func finalityNetwork(b *testing.B, withWAL bool) *blockchain.Network {
	b.Helper()
	net, err := blockchain.NewNetwork("finality", []string{"org-a", "org-b", "org-c"}, 2,
		blockchain.WithSignatureScheme(hckrypto.SchemeEd25519))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	if withWAL {
		wal, blocks, err := durable.OpenWAL(b.TempDir(), durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { wal.Close() })
		for _, id := range net.PeerIDs() {
			peer, err := net.Peer(id)
			if err != nil {
				b.Fatal(err)
			}
			if err := peer.Ledger().Restore(blocks); err != nil {
				b.Fatal(err)
			}
			peer.Ledger().SetWAL(wal)
		}
	}
	// Settle the ordering leader outside the timed section.
	if err := net.Submit(receipt(0), 10*time.Second); err != nil {
		b.Fatal(err)
	}
	return net
}

func receipt(i int) blockchain.Transaction {
	return blockchain.NewTransaction(blockchain.EventDataReceipt, "bench",
		fmt.Sprintf("ref-%d", i), nil, map[string]string{"k": "v"})
}

// BenchmarkSubmitFinality is submit-to-finality for one transaction at a
// time (after SNIPPETS' TestBlockTimeToFinality): endorse, order, and
// every peer's ledger committed — ns/op is the whole wait.
func BenchmarkSubmitFinality(b *testing.B) {
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"mem", false}, {"wal", true}} {
		b.Run(tc.name, func(b *testing.B) {
			net := finalityNetwork(b, tc.wal)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.Submit(receipt(i+1), 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatcherSubmit drives the group-commit batcher from 1 and 16
// closed-loop submitters. ns/op is wall time per committed transaction
// (inverse throughput); finality-ns/op is the mean latency one Submit
// saw, and tx/group the mean group size the load produced.
func BenchmarkBatcherSubmit(b *testing.B) {
	for _, submitters := range []int{1, 16} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			net := finalityNetwork(b, false)
			bat := blockchain.NewBatcher(net, blockchain.BatcherConfig{})
			defer bat.Close()
			var next, waited atomic.Int64
			var failed atomic.Bool
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < submitters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						start := time.Now()
						if err := bat.Submit(receipt(int(i)), 10*time.Second); err != nil {
							failed.Store(true)
							return
						}
						waited.Add(int64(time.Since(start)))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("a Submit failed")
			}
			b.ReportMetric(float64(waited.Load())/float64(b.N), "finality-ns/op")
			b.ReportMetric(bat.Stats().MeanBatchSize(), "tx/group")
		})
	}
}
