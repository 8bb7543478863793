package blockchain

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
)

const testTimeout = 10 * time.Second

func newTestNetwork(t *testing.T, peers int, policyK int, opts ...Option) *Network {
	t.Helper()
	ids := make([]string, peers)
	for i := range ids {
		ids[i] = fmt.Sprintf("peer-%d", i)
	}
	n, err := NewNetwork("provenance", ids, policyK, opts...)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork("x", nil, 1); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewNetwork("x", []string{"a"}, 0); err == nil {
		t.Error("policy 0 accepted")
	}
	if _, err := NewNetwork("x", []string{"a"}, 2); err == nil {
		t.Error("policy > peers accepted")
	}
}

func TestSubmitCommitsOnAllPeers(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	tx := NewTransaction(EventDataReceipt, "ingest-svc", "handle-1", []byte("hash"), map[string]string{"bundle": "b1"})
	if err := n.Submit(tx, testTimeout); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, id := range n.PeerIDs() {
		p, err := n.Peer(id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Ledger().Committed(tx.ID) {
			t.Errorf("%s missing tx", id)
		}
		if state, ok := p.Ledger().HandleState("handle-1"); !ok || !strings.HasPrefix(state, string(EventDataReceipt)) {
			t.Errorf("%s handle state = %q, %v", id, state, ok)
		}
	}
}

// TestCheckSubmitPathSideEffectFree pins the health-probe contract: the
// dry-run submit check must exercise the fault point and the
// endorsement policy without growing any peer's ledger, and must
// surface injected submit faults as errors.
func TestCheckSubmitPathSideEffectFree(t *testing.T) {
	faults := faultinject.NewRegistry(7)
	n := newTestNetwork(t, 3, 2, WithFaults(faults))
	tx := NewTransaction(EventDataReceipt, "ingest-svc", "handle-1", []byte("hash"), nil)
	if err := n.Submit(tx, testTimeout); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	heights := make(map[string]int)
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		heights[id] = p.Ledger().Height()
	}
	for i := 0; i < 10; i++ {
		if err := n.CheckSubmitPath(); err != nil {
			t.Fatalf("healthy CheckSubmitPath: %v", err)
		}
	}
	// Ten probe rounds, zero record growth — on every peer.
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		if got := p.Ledger().Height(); got != heights[id] {
			t.Errorf("%s ledger height %d after probes, want %d (probes must not commit)", id, got, heights[id])
		}
	}
	faults.Enable(FaultSubmit, faultinject.Fault{ErrorRate: 1})
	if err := n.CheckSubmitPath(); err == nil {
		t.Error("CheckSubmitPath missed an injected submit fault")
	}
	faults.Disable(FaultSubmit)
	if err := n.CheckSubmitPath(); err != nil {
		t.Errorf("CheckSubmitPath after fault cleared: %v", err)
	}
}

func TestLedgersConvergeIdentically(t *testing.T) {
	n := newTestNetwork(t, 3, 1)
	for i := 0; i < 5; i++ {
		tx := NewTransaction(EventDataRetrieval, "svc", fmt.Sprintf("h-%d", i), nil, nil)
		if err := n.Submit(tx, testTimeout); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	var head []byte
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		if err := p.Ledger().VerifyChain(); err != nil {
			t.Errorf("%s chain: %v", id, err)
		}
		h := p.Ledger().Head()
		if head == nil {
			head = h
		} else if string(h) != string(head) {
			t.Errorf("%s head diverges", id)
		}
	}
}

// groupOf is a lone transaction as the group of one it is endorsed as.
func groupOf(handle string) []Transaction {
	return []Transaction{NewTransaction(EventDataReceipt, "svc", handle, nil, nil)}
}

func TestEndorsementPolicyRejectsUnderEndorsed(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	txs := groupOf("h")
	// Hand-endorse with only one peer, bypassing endorseGroup.
	p, _ := n.Peer("peer-0")
	e, err := p.EndorseGroup(txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.checkGroupEndorsements(txs, []Endorsement{e}); !errors.Is(err, ErrNotEndorsed) {
		t.Errorf("got %v, want ErrNotEndorsed", err)
	}
}

func TestEndorsementDuplicatesDontCount(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	txs := groupOf("h")
	p, _ := n.Peer("peer-0")
	e, err := p.EndorseGroup(txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.checkGroupEndorsements(txs, []Endorsement{e, e, e}); !errors.Is(err, ErrNotEndorsed) {
		t.Errorf("duplicate endorsements counted: %v", err)
	}
}

func TestEndorsementForgedSignatureRejected(t *testing.T) {
	n := newTestNetwork(t, 2, 1)
	forged := Endorsement{PeerID: "peer-0", Signature: []byte("not a signature")}
	if err := n.checkGroupEndorsements(groupOf("h"), []Endorsement{forged}); !errors.Is(err, ErrBadEndorsement) {
		t.Errorf("got %v, want ErrBadEndorsement", err)
	}
}

func TestEndorsementUnknownPeerRejected(t *testing.T) {
	n := newTestNetwork(t, 2, 1)
	mallory := Endorsement{PeerID: "mallory", Signature: []byte("sig")}
	if err := n.checkGroupEndorsements(groupOf("h"), []Endorsement{mallory}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("got %v, want ErrUnknownPeer", err)
	}
}

func TestTamperedTxFailsEndorsementCheck(t *testing.T) {
	n := newTestNetwork(t, 2, 1)
	txs := groupOf("handle-orig")
	group, err := n.endorseGroup(txs)
	if err != nil {
		t.Fatal(err)
	}
	txs[0].Handle = "handle-swapped" // tamper after endorsement
	if err := n.checkGroupEndorsements(txs, group); !errors.Is(err, ErrBadEndorsement) {
		t.Errorf("got %v, want ErrBadEndorsement", err)
	}
}

func TestValidationRuleBlocksSubmission(t *testing.T) {
	rule := func(tx *Transaction) error {
		if tx.Type == EventMalwareReport && tx.Meta["severity"] == "" {
			return errors.New("malware reports need a severity")
		}
		return nil
	}
	n := newTestNetwork(t, 3, 2, WithValidation(rule))
	bad := NewTransaction(EventMalwareReport, "scanner", "h", nil, nil)
	err := n.Submit(bad, testTimeout)
	if !errors.Is(err, ErrTxRejected) {
		t.Errorf("got %v, want ErrTxRejected", err)
	}
	good := NewTransaction(EventMalwareReport, "scanner", "h", nil, map[string]string{"severity": "high"})
	if err := n.Submit(good, testTimeout); err != nil {
		t.Errorf("valid tx rejected: %v", err)
	}
}

func TestSubmitBatchSingleBlock(t *testing.T) {
	n := newTestNetwork(t, 3, 1)
	txs := make([]Transaction, 8)
	for i := range txs {
		txs[i] = NewTransaction(EventDataReceipt, "svc", fmt.Sprintf("h-%d", i), nil, nil)
	}
	if err := n.SubmitBatch(txs, testTimeout); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	p, _ := n.Peer("peer-0")
	if p.Ledger().Height() != 1 {
		t.Errorf("height = %d, want 1 (one block per batch)", p.Ledger().Height())
	}
	if p.Ledger().TxCount() != 8 {
		t.Errorf("tx count = %d, want 8", p.Ledger().TxCount())
	}
	if err := n.SubmitBatch(nil, testTimeout); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestAuditQueries(t *testing.T) {
	n := newTestNetwork(t, 2, 1)
	events := []struct {
		typ     EventType
		creator string
		handle  string
	}{
		{EventDataReceipt, "ingest", "rec-1"},
		{EventAnonymization, "anon-svc", "rec-1"},
		{EventDataRetrieval, "analytics", "rec-1"},
		{EventDataReceipt, "ingest", "rec-2"},
	}
	for _, e := range events {
		tx := NewTransaction(e.typ, e.creator, e.handle, nil, nil)
		if err := n.Submit(tx, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := n.Peer("peer-0")
	ledger := p.Ledger()

	trail := ledger.ProvenanceTrail("rec-1")
	if len(trail) != 3 {
		t.Fatalf("provenance trail for rec-1 has %d events, want 3", len(trail))
	}
	wantOrder := []EventType{EventDataReceipt, EventAnonymization, EventDataRetrieval}
	for i, typ := range wantOrder {
		if trail[i].Type != typ {
			t.Errorf("trail[%d] = %s, want %s", i, trail[i].Type, typ)
		}
	}
	byCreator := ledger.Audit(AuditQuery{Creator: "ingest"})
	if len(byCreator) != 2 {
		t.Errorf("audit by creator: %d, want 2", len(byCreator))
	}
	byType := ledger.Audit(AuditQuery{Type: EventAnonymization})
	if len(byType) != 1 {
		t.Errorf("audit by type: %d, want 1", len(byType))
	}
	all := ledger.Audit(AuditQuery{})
	if len(all) != 4 {
		t.Errorf("unfiltered audit: %d, want 4", len(all))
	}
	none := ledger.Audit(AuditQuery{Until: time.Now().Add(-time.Hour)})
	if len(none) != 0 {
		t.Errorf("time-bounded audit: %d, want 0", len(none))
	}
}

func TestLedgerDetectsTamper(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 3; i++ {
		tx := NewTransaction(EventDataReceipt, "svc", fmt.Sprintf("h-%d", i), nil, nil)
		if _, err := l.AppendBlock([]Transaction{tx}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("untampered chain: %v", err)
	}
	// Reach in and alter a committed transaction.
	l.blocks[1].Txs[0].Handle = "forged"
	if err := l.VerifyChain(); !errors.Is(err, ErrChainBroken) {
		t.Errorf("got %v, want ErrChainBroken", err)
	}
}

func TestLedgerDedupsByTxID(t *testing.T) {
	l := NewLedger()
	tx := NewTransaction(EventDataReceipt, "svc", "h", nil, nil)
	if _, err := l.AppendBlock([]Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	b, err := l.AppendBlock([]Transaction{tx}) // redelivery
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Error("duplicate tx produced a block")
	}
	if l.TxCount() != 1 || l.Height() != 1 {
		t.Errorf("count=%d height=%d, want 1/1", l.TxCount(), l.Height())
	}
}

func TestLedgerBlockAccess(t *testing.T) {
	l := NewLedger()
	if _, err := l.Block(0); err == nil {
		t.Error("block 0 of empty ledger accessible")
	}
	tx := NewTransaction(EventDataReceipt, "svc", "h", nil, nil)
	l.AppendBlock([]Transaction{tx})
	b, err := l.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Number != 0 || len(b.Txs) != 1 {
		t.Errorf("block = %+v", b)
	}
	if l.Head() == nil {
		t.Error("head nil after append")
	}
	if NewLedger().Head() != nil {
		t.Error("empty ledger has a head")
	}
}

func TestTransactionDigestSensitivity(t *testing.T) {
	base := Transaction{ID: "id", Type: EventDataReceipt, Creator: "c", Handle: "h",
		DataHash: []byte("d"), Meta: map[string]string{"k": "v"}, Timestamp: time.Unix(100, 0)}
	d0 := base.Digest()
	mutations := []func(*Transaction){
		func(tx *Transaction) { tx.ID = "id2" },
		func(tx *Transaction) { tx.Type = EventExport },
		func(tx *Transaction) { tx.Creator = "c2" },
		func(tx *Transaction) { tx.Handle = "h2" },
		func(tx *Transaction) { tx.DataHash = []byte("d2") },
		func(tx *Transaction) { tx.Meta = map[string]string{"k": "v2"} },
		func(tx *Transaction) { tx.Meta = map[string]string{"k2": "v"} },
		func(tx *Transaction) { tx.Timestamp = time.Unix(101, 0) },
	}
	for i, mutate := range mutations {
		tx := base
		mutate(&tx)
		if string(tx.Digest()) == string(d0) {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
	// Endorsements must NOT affect the digest (they sign it).
	tx := base
	tx.Endorsements = []Endorsement{{PeerID: "p", Signature: []byte("s")}}
	if string(tx.Digest()) != string(d0) {
		t.Error("endorsements changed the digest")
	}
}

func TestTransactionDigestMetaOrderIndependent(t *testing.T) {
	a := Transaction{ID: "x", Meta: map[string]string{"a": "1", "b": "2", "c": "3"}}
	b := Transaction{ID: "x", Meta: map[string]string{"c": "3", "b": "2", "a": "1"}}
	if string(a.Digest()) != string(b.Digest()) {
		t.Error("digest depends on map iteration order")
	}
}

func TestPHINeverOnChain(t *testing.T) {
	// Design-rule test: a provenance transaction carries only handle +
	// salted hash. Confirm the committed bytes do not contain the PHI.
	n := newTestNetwork(t, 2, 1)
	phi := []byte(`{"name":"Jane Doe","diagnosis":"T2D"}`)
	salt := []byte("per-record-salt")
	tx := NewTransaction(EventDataReceipt, "ingest", "ref-123", hckrypto.SaltedHash(salt, phi), nil)
	if err := n.Submit(tx, testTimeout); err != nil {
		t.Fatal(err)
	}
	p, _ := n.Peer("peer-0")
	b, err := p.Ledger().Block(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, committed := range b.Txs {
		if strings.Contains(string(committed.DataHash), "Jane Doe") ||
			committed.Handle == string(phi) {
			t.Error("PHI leaked onto the ledger")
		}
	}
}

// TestCommitUnderLossyOrdering injects 15% message loss into the
// ordering fabric and verifies the ledger still commits and converges —
// the availability property §IV's threat model demands under degraded
// networks.
func TestCommitUnderLossyOrdering(t *testing.T) {
	n := newTestNetwork(t, 3, 2)
	n.OrderingNetwork().SetDropRate(0.15)
	for i := 0; i < 5; i++ {
		tx := NewTransaction(EventDataReceipt, "svc", fmt.Sprintf("lossy-%d", i), nil, nil)
		if err := n.Submit(tx, 30*time.Second); err != nil {
			t.Fatalf("submit %d under loss: %v", i, err)
		}
	}
	n.OrderingNetwork().SetDropRate(0)
	var head []byte
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		if err := p.Ledger().VerifyChain(); err != nil {
			t.Errorf("%s chain after loss: %v", id, err)
		}
		if p.Ledger().TxCount() != 5 {
			t.Errorf("%s committed %d txs, want 5", id, p.Ledger().TxCount())
		}
		h := p.Ledger().Head()
		if head == nil {
			head = h
		} else if string(h) != string(head) {
			t.Errorf("%s head diverged after lossy ordering", id)
		}
	}
}

// TestCommitAcrossOrderingPartition heals a partition mid-stream and
// requires all peers to converge on identical chains.
func TestCommitAcrossOrderingPartition(t *testing.T) {
	n := newTestNetwork(t, 3, 1)
	tx1 := NewTransaction(EventDataReceipt, "svc", "pre-partition", nil, nil)
	if err := n.Submit(tx1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Isolate one ordering node; a majority remains. Submit's contract is
	// commit-on-ALL-peers, so it must report a timeout while the isolated
	// peer cannot catch up — but the majority must already hold the tx.
	n.OrderingNetwork().Isolate("node-2")
	tx2 := NewTransaction(EventDataReceipt, "svc", "during-partition", nil, nil)
	if err := n.Submit(tx2, 3*time.Second); err == nil {
		t.Fatal("Submit reported all-peer commit despite a partitioned peer")
	}
	committed := 0
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		if p.Ledger().Committed(tx2.ID) {
			committed++
		}
	}
	if committed < 2 {
		t.Fatalf("only %d peers committed during partition, want majority", committed)
	}
	n.OrderingNetwork().Heal()
	tx3 := NewTransaction(EventDataReceipt, "svc", "post-heal", nil, nil)
	if err := n.Submit(tx3, 30*time.Second); err != nil {
		t.Fatalf("submit post-heal: %v", err)
	}
	// All peers (including the one fed by the previously isolated node)
	// converge to 3 committed transactions.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, id := range n.PeerIDs() {
			p, _ := n.Peer(id)
			if p.Ledger().TxCount() != 3 {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		if got := p.Ledger().TxCount(); got != 3 {
			t.Errorf("%s committed %d txs after heal, want 3", id, got)
		}
		if err := p.Ledger().VerifyChain(); err != nil {
			t.Errorf("%s chain: %v", id, err)
		}
	}
}

func TestWaitCommitted(t *testing.T) {
	l := NewLedger()
	done := NewTransaction(EventDataReceipt, "svc", "h-done", nil, nil)
	if _, err := l.AppendBlock([]Transaction{done}); err != nil {
		t.Fatal(err)
	}
	// Already committed: true at once, even with the deadline in the past.
	if !l.WaitCommitted(done.ID, time.Now().Add(-time.Second)) {
		t.Error("already-committed tx reported uncommitted")
	}
	// Never committed: false once the deadline passes, not before.
	start := time.Now()
	if l.WaitCommitted("no-such-tx", start.Add(30*time.Millisecond)) {
		t.Error("unknown tx reported committed")
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("gave up after %v, before the 30ms deadline", waited)
	}
	// Woken by the append itself: the deadline is a minute away, so only
	// AppendBlock's notification can end this wait in time. An unrelated
	// block first must wake the waiter without satisfying it.
	late := NewTransaction(EventDataReceipt, "svc", "h-late", nil, nil)
	res := make(chan bool, 1)
	go func() { res <- l.WaitCommitted(late.ID, time.Now().Add(time.Minute)) }()
	other := NewTransaction(EventDataReceipt, "svc", "h-other", nil, nil)
	if _, err := l.AppendBlock([]Transaction{other}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-res:
		t.Fatalf("wait ended with %v on an unrelated block", got)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := l.AppendBlock([]Transaction{late}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-res:
		if !got {
			t.Error("woken waiter reported its tx uncommitted")
		}
	case <-time.After(testTimeout):
		t.Fatal("AppendBlock did not wake the waiter")
	}
}
