package multichain

import (
	"fmt"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/faultinject"
)

const testSeed = 2112

// newFabric builds a small fabric for tests: 2 peers, policy 1 (cheap
// RSA keygen), fixed seed.
func newFabric(t *testing.T, channels int, mutate func(*Config)) *Ledger {
	t.Helper()
	cfg := Config{
		Name:     "test-ledger",
		Channels: channels,
		PeerIDs:  []string{"org-a", "org-b"},
		PolicyK:  1,
		Seed:     testSeed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func testTx(handle string, seq int) blockchain.Transaction {
	return blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest", handle,
		nil, map[string]string{"seq": fmt.Sprintf("%d", seq)})
}

func TestRoutingDeterministicAcrossFabrics(t *testing.T) {
	a := newFabric(t, 4, nil)
	b := newFabric(t, 4, nil)
	seen := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("patient-%03d", i)
		ra, rb := a.Route(key), b.Route(key)
		if ra != rb {
			t.Fatalf("key %q routes to %s on one fabric, %s on another", key, ra, rb)
		}
		seen[ra]++
	}
	if len(seen) != 4 {
		t.Fatalf("200 keys spread over %d channels, want all 4: %v", len(seen), seen)
	}
}

func TestSubmitLandsOnOwningChannelOnly(t *testing.T) {
	m := newFabric(t, 2, nil)
	txs := make([]blockchain.Transaction, 6)
	for i := range txs {
		txs[i] = testTx(fmt.Sprintf("ref-%d", i), 0)
		if err := m.Submit(txs[i], 5*time.Second); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for _, tx := range txs {
		owner := m.Route(RouteKey(&tx))
		for _, ch := range m.Channels() {
			committed := ch.ledger().Committed(tx.ID)
			if (ch.Name == owner) != committed {
				t.Fatalf("tx %s (owner %s): committed=%v on channel %s",
					tx.ID, owner, committed, ch.Name)
			}
		}
	}
	if got := m.TxCount(); got != len(txs) {
		t.Fatalf("TxCount = %d, want %d", got, len(txs))
	}
	if err := m.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}

func TestSubmitBatchSplitsAcrossChannels(t *testing.T) {
	m := newFabric(t, 3, nil)
	txs := make([]blockchain.Transaction, 24)
	for i := range txs {
		txs[i] = testTx(fmt.Sprintf("batch-ref-%02d", i), 0)
	}
	if err := m.SubmitBatch(txs, 10*time.Second); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if got := m.TxCount(); got != len(txs) {
		t.Fatalf("TxCount = %d, want %d", got, len(txs))
	}
	// Each channel committed exactly its routed share, as one batch.
	perChannel := make(map[string]int)
	for _, tx := range txs {
		perChannel[m.Route(RouteKey(&tx))]++
	}
	for _, ch := range m.Channels() {
		if got := ch.ledger().TxCount(); got != perChannel[ch.Name] {
			t.Fatalf("channel %s has %d txs, want %d", ch.Name, got, perChannel[ch.Name])
		}
	}
}

func TestBatcherPathFlushAndClose(t *testing.T) {
	m := newFabric(t, 2, nil)
	for i := 0; i < 10; i++ {
		if err := m.Submit(testTx(fmt.Sprintf("b-ref-%d", i), 0), 5*time.Second); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	m.Flush()
	if got := m.TxCount(); got != 10 {
		t.Fatalf("TxCount = %d, want 10", got)
	}
	for _, ch := range m.Channels() {
		if ch.Batcher == nil {
			t.Fatalf("channel %s has no batcher", ch.Name)
		}
	}
}

func TestDurableRestartReplaysEveryChannel(t *testing.T) {
	dir := t.TempDir()
	build := func() *Ledger {
		m, err := New(Config{
			Name: "test-ledger", Channels: 2,
			PeerIDs: []string{"org-a", "org-b"}, PolicyK: 1,
			Seed: testSeed, DataDir: dir, SnapshotEvery: 3,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}
	m := build()
	for i := 0; i < 14; i++ {
		if err := m.Submit(testTx(fmt.Sprintf("durable-ref-%02d", i), 0), 5*time.Second); err != nil {
			m.Close()
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	want := m.StateHashes()
	wantTxs := m.TxCount()
	m.Close()

	re := build()
	defer re.Close()
	got := re.StateHashes()
	for name, hash := range want {
		if got[name] != hash {
			t.Fatalf("channel %s state hash after restart = %s, want %s", name, got[name], hash)
		}
	}
	if re.TxCount() != wantTxs {
		t.Fatalf("TxCount after restart = %d, want %d", re.TxCount(), wantTxs)
	}
	if err := re.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after restart: %v", err)
	}
	if len(re.WALs()) != 2 {
		t.Fatalf("WALs() returned %d logs, want 2", len(re.WALs()))
	}
	// The restored fabric keeps taking traffic.
	if err := re.Submit(testTx("durable-ref-post", 0), 5*time.Second); err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
}

func TestChannelHealthAndLeaders(t *testing.T) {
	faults := faultinject.NewRegistry(1)
	m := newFabric(t, 2, func(c *Config) { c.Faults = faults })
	health := m.ChannelHealth()
	if len(health) != 2 {
		t.Fatalf("ChannelHealth returned %d channels, want 2", len(health))
	}
	for name, h := range health {
		if h.Err != nil {
			t.Fatalf("channel %s unhealthy on a clean fabric: %v", name, h.Err)
		}
	}
	// Leaders settle; every channel reports one eventually.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaders := m.OrderingLeaders()
		settled := 0
		for _, id := range leaders {
			if id != "" {
				settled++
			}
		}
		if settled == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaders never settled: %v", leaders)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// An injected submit fault surfaces on every channel's health check
	// (the fault point is shared), never silently.
	faults.Enable(blockchain.FaultSubmit, faultinject.Fault{ErrorRate: 1})
	health = m.ChannelHealth()
	for name, h := range health {
		if h.Err == nil {
			t.Fatalf("channel %s healthy under a 100%% submit fault", name)
		}
	}
}

func TestSingleChannelMatchesRouteEverything(t *testing.T) {
	m := newFabric(t, 1, nil)
	for i := 0; i < 20; i++ {
		if got := m.Route(fmt.Sprintf("any-%d", i)); got != ChannelName(0) {
			t.Fatalf("single-channel fabric routed %q to %s", fmt.Sprintf("any-%d", i), got)
		}
	}
}
