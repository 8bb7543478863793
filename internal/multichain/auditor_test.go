package multichain

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"healthcloud/internal/blockchain"
)

// entrySig reduces an auditor entry to its order-defining coordinates,
// comparable across restarts (transaction timestamps don't round-trip
// bit-identically through JSON monotonic-clock stripping).
func entrySig(e Entry) string {
	return fmt.Sprintf("%s@%s/%d/%d", e.Tx.ID, e.Channel, e.Height, e.Index)
}

// TestAuditorTotalOrderUnderInterleaving is the cross-channel property
// test: however commits interleave across records (and therefore
// channels), the auditor reconstructs each record's events in exactly
// submission order, entirely on one channel, at strictly increasing
// (height, index) — and the reconstruction is identical after a full
// WAL replay.
func TestAuditorTotalOrderUnderInterleaving(t *testing.T) {
	const (
		records   = 10
		perRecord = 5
		channels  = 3
	)
	dir := t.TempDir()
	build := func() *Ledger {
		m, err := New(Config{
			Name: "audit-ledger", Channels: channels,
			PeerIDs: []string{"org-a", "org-b"}, PolicyK: 1,
			Seed: testSeed, DataDir: dir,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}
	m := build()

	// Interleave per-record event sequences with a seeded shuffle that
	// preserves each record's internal order (submission is sequential,
	// so commit order per record == submission order).
	rng := rand.New(rand.NewSource(7))
	types := []blockchain.EventType{
		blockchain.EventDataReceipt, blockchain.EventAnonymization,
		blockchain.EventConsentGranted, blockchain.EventWorkloadAttest,
		blockchain.EventSecureDeletion,
	}
	nextSeq := make([]int, records)
	remaining := records * perRecord
	for remaining > 0 {
		rec := rng.Intn(records)
		if nextSeq[rec] >= perRecord {
			continue
		}
		handle := fmt.Sprintf("rec-%02d", rec)
		seq := nextSeq[rec]
		tx := blockchain.NewTransaction(types[seq%len(types)], "ingest", handle,
			nil, map[string]string{"seq": fmt.Sprintf("%d", seq)})
		if err := m.Submit(tx, 5*time.Second); err != nil {
			m.Close()
			t.Fatalf("Submit %s seq %d: %v", handle, seq, err)
		}
		nextSeq[rec]++
		remaining--
	}

	aud := m.Auditor()
	sigs := make(map[string][]string, records)
	for rec := 0; rec < records; rec++ {
		handle := fmt.Sprintf("rec-%02d", rec)
		entries, err := aud.TotalOrder(handle)
		if err != nil {
			m.Close()
			t.Fatalf("TotalOrder(%s): %v", handle, err)
		}
		if len(entries) != perRecord {
			m.Close()
			t.Fatalf("TotalOrder(%s) returned %d events, want %d", handle, len(entries), perRecord)
		}
		owner := m.Route(handle)
		for i, e := range entries {
			if e.Channel != owner {
				m.Close()
				t.Fatalf("%s event %d on channel %s, owner is %s", handle, i, e.Channel, owner)
			}
			if got := e.Tx.Meta["seq"]; got != fmt.Sprintf("%d", i) {
				m.Close()
				t.Fatalf("%s position %d carries seq %s — total order broken", handle, i, got)
			}
			if i > 0 {
				prev := entries[i-1]
				if e.Height < prev.Height || (e.Height == prev.Height && e.Index <= prev.Index) {
					m.Close()
					t.Fatalf("%s events %d,%d not strictly increasing: (%d,%d) then (%d,%d)",
						handle, i-1, i, prev.Height, prev.Index, e.Height, e.Index)
				}
			}
			sigs[handle] = append(sigs[handle], entrySig(e))
		}
	}

	// The merged view is deterministic: two passes agree exactly.
	all1, err := aud.Entries(blockchain.AuditQuery{})
	if err != nil {
		m.Close()
		t.Fatalf("Entries: %v", err)
	}
	all2, _ := aud.Entries(blockchain.AuditQuery{})
	if len(all1) != records*perRecord || len(all1) != len(all2) {
		m.Close()
		t.Fatalf("merged view sized %d/%d, want %d", len(all1), len(all2), records*perRecord)
	}
	for i := range all1 {
		if entrySig(all1[i]) != entrySig(all2[i]) {
			m.Close()
			t.Fatalf("merged view not deterministic at %d: %s vs %s",
				i, entrySig(all1[i]), entrySig(all2[i]))
		}
	}
	m.Close()

	// Stable under replay: a fabric rebuilt from the WALs reconstructs
	// the identical total order for every record.
	re := build()
	defer re.Close()
	reAud := re.Auditor()
	for rec := 0; rec < records; rec++ {
		handle := fmt.Sprintf("rec-%02d", rec)
		entries, err := reAud.TotalOrder(handle)
		if err != nil {
			t.Fatalf("TotalOrder(%s) after replay: %v", handle, err)
		}
		if len(entries) != len(sigs[handle]) {
			t.Fatalf("%s: %d events after replay, want %d", handle, len(entries), len(sigs[handle]))
		}
		for i, e := range entries {
			if got := entrySig(e); got != sigs[handle][i] {
				t.Fatalf("%s event %d changed across replay: %s, want %s",
					handle, i, got, sigs[handle][i])
			}
		}
	}
}

// TestAuditorRefusesTamperedChain: the auditor view must verify before
// trusting; Audit returns nothing rather than serving a tampered chain.
func TestAuditQueryFiltersAcrossChannels(t *testing.T) {
	m := newFabric(t, 2, nil)
	for i := 0; i < 8; i++ {
		typ := blockchain.EventDataReceipt
		if i%2 == 1 {
			typ = blockchain.EventSecureDeletion
		}
		tx := blockchain.NewTransaction(typ, "ingest", fmt.Sprintf("q-ref-%d", i), nil, nil)
		if err := m.Submit(tx, 5*time.Second); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	got := m.Audit(blockchain.AuditQuery{Type: blockchain.EventSecureDeletion})
	if len(got) != 4 {
		t.Fatalf("Audit by type returned %d txs, want 4", len(got))
	}
	one := m.Audit(blockchain.AuditQuery{Handle: "q-ref-3"})
	if len(one) != 1 || one[0].Handle != "q-ref-3" {
		t.Fatalf("Audit by handle returned %v", one)
	}
	if trail := m.ProvenanceTrail("q-ref-0"); len(trail) != 1 {
		t.Fatalf("ProvenanceTrail returned %d events, want 1", len(trail))
	}
}
