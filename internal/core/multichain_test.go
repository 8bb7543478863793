package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/monitor"
	"healthcloud/internal/multichain"
	"healthcloud/internal/telemetry"
)

// TestFabricHealthAggregation pins the worst-state fold behind the
// multi-channel readiness probes: the platform degrades when some
// channels are sick and goes Down only when all are — it never reports
// Healthy over a partial outage, and never reports Down while healthy
// channels can still commit.
func TestFabricHealthAggregation(t *testing.T) {
	boom := multichain.SubmitHealth{Err: errors.New("endorsement refused")}
	ok := multichain.SubmitHealth{Elapsed: time.Millisecond}
	slow := multichain.SubmitHealth{Elapsed: 2 * monitorLedgerSlow}
	cases := []struct {
		name   string
		health map[string]multichain.SubmitHealth
		want   monitor.ProbeState
	}{
		{"all-healthy", map[string]multichain.SubmitHealth{"ch-0": ok, "ch-1": ok, "ch-2": ok}, monitor.StateOK},
		{"one-failing", map[string]multichain.SubmitHealth{"ch-0": ok, "ch-1": boom, "ch-2": ok}, monitor.StateDegraded},
		{"all-failing", map[string]multichain.SubmitHealth{"ch-0": boom, "ch-1": boom}, monitor.StateDown},
		{"one-slow", map[string]multichain.SubmitHealth{"ch-0": ok, "ch-1": slow}, monitor.StateDegraded},
		{"all-slow", map[string]multichain.SubmitHealth{"ch-0": slow, "ch-1": slow}, monitor.StateDegraded},
	}
	for _, tc := range cases {
		if got := fabricLedgerHealth(tc.health); got.State != tc.want {
			t.Errorf("fabricLedgerHealth %s = %v (%s), want %v", tc.name, got.State, got.Detail, tc.want)
		}
	}

	leaderCases := []struct {
		name    string
		leaders map[string]string
		want    monitor.ProbeState
	}{
		{"all-settled", map[string]string{"ch-0": "hospital", "ch-1": "hospital"}, monitor.StateOK},
		{"one-unsettled", map[string]string{"ch-0": "hospital", "ch-1": ""}, monitor.StateDegraded},
		{"none-settled", map[string]string{"ch-0": "", "ch-1": ""}, monitor.StateDown},
	}
	for _, tc := range leaderCases {
		if got := fabricLeaderHealth(tc.leaders); got.State != tc.want {
			t.Errorf("fabricLeaderHealth %s = %v (%s), want %v", tc.name, got.State, got.Detail, tc.want)
		}
	}

	// A degraded report must name the sick channel so /statusz is
	// actionable, not just a count.
	if got := fabricLedgerHealth(map[string]multichain.SubmitHealth{"ch-0": ok, "ch-1": boom}); got.Detail == "" {
		t.Error("degraded ledger health carries no detail")
	} else if want := "ch-1"; !strings.Contains(got.Detail, want) {
		t.Errorf("degraded detail %q does not name failing channel %s", got.Detail, want)
	}
}

// TestMultiChannelFaultFlipsReadiness pins the honest half of the
// readiness contract end to end: when the submit path is broken the
// aggregate ledger probe goes Down and /readyz flips, instead of
// serving a green report over a fabric that cannot commit.
func TestMultiChannelFaultFlipsReadiness(t *testing.T) {
	faults := faultinject.NewRegistry(1)
	p, err := New(Config{
		Tenant:          "mercy-health",
		KBDataset:       smallKB(t),
		LedgerPeers:     []string{"hospital", "audit-svc"},
		Channels:        2,
		Faults:          faults,
		Telemetry:       telemetry.New(),
		Monitor:         true,
		MonitorInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	faults.Enable(blockchain.FaultSubmit, faultinject.Fault{ErrorRate: 1})
	rep := p.Monitor.Prober().Probe()
	if h := rep.Components["provenance-ledger"]; h.State != monitor.StateDown {
		t.Errorf("ledger probe under total fault = %v (%s), want Down", h.State, h.Detail)
	}
	for i := 0; i < 2; i++ {
		name := "provenance-ledger/" + multichain.ChannelName(i)
		if h := rep.Components[name]; h.State != monitor.StateDegraded {
			t.Errorf("%s under fault = %v, want Degraded (aggregate owns Down)", name, h.State)
		}
	}
	if rep.Ready {
		t.Error("platform ready while no channel can commit")
	}

	faults.Disable(blockchain.FaultSubmit)
	// Readiness also needs the ordering clusters' first elections to have
	// settled, which races a freshly built platform — poll with a
	// deadline instead of asserting on one instant.
	deadline := time.Now().Add(5 * time.Second)
	rep = p.Monitor.Prober().Probe()
	for !rep.Ready && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		rep = p.Monitor.Prober().Probe()
	}
	if h := rep.Components["provenance-ledger"]; h.State != monitor.StateOK {
		t.Errorf("ledger probe after fault cleared = %v (%s)", h.State, h.Detail)
	}
	if !rep.Ready {
		t.Errorf("platform not ready after fault cleared: %+v", rep)
	}
}

// TestMultiChannelRestartReplaysState is the fabric-wide crash-recovery
// contract: a Channels=2 platform with a DataDir commits traffic, shuts
// down, and a rebuilt platform replays every channel's WAL (through the
// latest world-state snapshot where one exists) to identical per-channel
// state hashes — then keeps accepting writes.
func TestMultiChannelRestartReplaysState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenant:              "mercy-health",
		KBDataset:           smallKB(t),
		LedgerPeers:         []string{"hospital", "audit-svc"},
		Channels:            2,
		DataDir:             dir,
		LedgerSnapshotEvery: 3,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const records = 10
	for i := 0; i < records; i++ {
		tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest",
			fmt.Sprintf("patient-%02d", i), nil, nil)
		if err := p.MultiChain.Submit(tx, 10*time.Second); err != nil {
			p.Close()
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	hashes := p.MultiChain.StateHashes()
	p.Close()

	re, err := New(cfg)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	defer re.Close()
	replayed := re.MultiChain.StateHashes()
	if len(replayed) != len(hashes) {
		t.Fatalf("replayed %d channels, want %d", len(replayed), len(hashes))
	}
	for name, want := range hashes {
		if got := replayed[name]; got != want {
			t.Errorf("channel %s state hash diverged across restart:\n got %s\nwant %s", name, got, want)
		}
	}
	if got := re.MultiChain.TxCount(); got != records {
		t.Errorf("tx count after restart = %d, want %d", got, records)
	}
	if err := re.MultiChain.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after restart: %v", err)
	}
	// The recovered fabric still takes writes.
	tx := blockchain.NewTransaction(blockchain.EventSecureDeletion, "ingest", "patient-00", nil, nil)
	if err := re.MultiChain.Submit(tx, 10*time.Second); err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
}
