package blockchain

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"healthcloud/internal/consensus"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/telemetry"
)

// FaultSubmit is the fault point consulted on every ledger submission
// (see internal/faultinject).
const FaultSubmit = "blockchain.submit"

// Network is one permissioned blockchain network (§IV names several:
// provenance, malware management, privacy, identity). Peers endorse,
// a Raft cluster orders, and every peer independently validates and
// commits the ordered stream to its own ledger copy.
type Network struct {
	name     string
	policyK  int // endorsements required
	peerIDs  []string
	peers    map[string]*Peer
	keys     map[string]hckrypto.Verifier
	cluster  *consensus.Cluster
	faults   *faultinject.Registry
	tracer   *telemetry.Tracer
	met      *netMetrics
	stopOnce sync.Once
	wg       sync.WaitGroup

	// orderPerTx > 0 models the ordering service as a serial device:
	// each ordering round holds orderMu for perTx × batch-size, the
	// way E19's lake device model charges per-object service time.
	// Set before the network takes traffic (experiments only).
	orderMu    sync.Mutex
	orderPerTx time.Duration

	// Block-cut cadence (the go-blockchain-time metric): interval
	// between consecutive blocks cut on the lead peer's chain.
	cutMu   sync.Mutex
	lastCut time.Time
	cutN    uint64 // blocks cut
	cutSum  time.Duration
	cutIvls uint64 // intervals recorded (cutN-1 once cutting)
}

// netMetrics caches the ledger's metric handles; nil disables metrics.
type netMetrics struct {
	submits, submitErrs        *telemetry.Counter
	commitErrs                 *telemetry.Counter
	endorse, order, commitWait *telemetry.Histogram
	blockCut                   *telemetry.Histogram
}

func newNetMetrics(reg *telemetry.Registry, network string) *netMetrics {
	if reg == nil {
		return nil
	}
	label := fmt.Sprintf("{network=%q}", network)
	return &netMetrics{
		submits:    reg.Counter("ledger_submits_total" + label),
		submitErrs: reg.Counter("ledger_submit_errors_total" + label),
		commitErrs: reg.Counter("ledger_commit_errors_total" + label),
		endorse:    reg.Histogram("ledger_endorse_seconds" + label),
		order:      reg.Histogram("ledger_order_seconds" + label),
		commitWait: reg.Histogram("ledger_commit_wait_seconds" + label),
		blockCut:   reg.Histogram("ledger_block_cut_seconds" + label),
	}
}

// Option configures a Network.
type Option func(*options)

type options struct {
	validate func(*Transaction) error
	faults   *faultinject.Registry
	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	scheme   hckrypto.Scheme
}

// WithValidation installs the peers' endorsement rule (smart-contract
// stand-in).
func WithValidation(f func(*Transaction) error) Option {
	return func(o *options) { o.validate = f }
}

// WithFaults installs a fault-injection registry consulted at
// FaultSubmit before each submission (nil disables).
func WithFaults(r *faultinject.Registry) Option {
	return func(o *options) { o.faults = r }
}

// WithSignatureScheme pins the endorsement signature scheme for every
// peer on the network (crypto agility). Zero value means the platform
// default (Ed25519); networks replaying chains endorsed under RSA-PSS
// pin that here. Mixed-algorithm verification still works regardless —
// the scheme rides in each endorsement's signature envelope.
func WithSignatureScheme(s hckrypto.Scheme) Option {
	return func(o *options) { o.scheme = s }
}

// WithTelemetry instruments the network: submit counters plus
// endorse/order/commit-wait latency histograms on reg, and per-phase
// spans on tracer (either may be nil).
func WithTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) Option {
	return func(o *options) {
		o.reg = reg
		o.tracer = tracer
	}
}

// NewNetwork creates a network with the given peers. policyK is the
// number of endorsements a transaction needs to be valid; it must be
// between 1 and len(peerIDs).
func NewNetwork(name string, peerIDs []string, policyK int, opts ...Option) (*Network, error) {
	if len(peerIDs) == 0 {
		return nil, errors.New("blockchain: network needs at least one peer")
	}
	if policyK < 1 || policyK > len(peerIDs) {
		return nil, fmt.Errorf("blockchain: policy %d out of range [1,%d]", policyK, len(peerIDs))
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := &Network{
		name:    name,
		faults:  o.faults,
		tracer:  o.tracer,
		met:     newNetMetrics(o.reg, name),
		policyK: policyK,
		peerIDs: append([]string(nil), peerIDs...),
		peers:   make(map[string]*Peer, len(peerIDs)),
		keys:    make(map[string]hckrypto.Verifier, len(peerIDs)),
	}
	if o.scheme == "" {
		o.scheme = hckrypto.DefaultScheme
	}
	sort.Strings(n.peerIDs)
	for _, id := range n.peerIDs {
		p, err := NewPeerWithScheme(id, o.scheme, o.validate)
		if err != nil {
			return nil, err
		}
		n.peers[id] = p
		n.keys[id] = p.Verifier()
	}
	// One ordering node per peer, mirroring Fabric's Raft ordering service.
	n.cluster = consensus.NewCluster(len(n.peerIDs), consensus.Config{})
	n.cluster.SetTelemetry(o.reg)
	for i, id := range n.peerIDs {
		n.wg.Add(1)
		// The first (sorted) peer is the cadence reference: every peer
		// cuts the same blocks, so one chain's timing is the network's.
		go n.pump(n.cluster.Nodes[i], n.peers[id], i == 0)
	}
	return n, nil
}

// pump applies the ordered stream to one peer's ledger (the "validate"
// and "commit" phases). lead marks the block-cut cadence reference peer.
func (n *Network) pump(node *consensus.Node, peer *Peer, lead bool) {
	defer n.wg.Done()
	for com := range node.Apply() {
		// Every entry is one group-endorsed batch, verified all-or-nothing
		// with one call. A malformed or under-endorsed entry — including
		// one that carries only per-transaction endorsements — is skipped,
		// and every peer makes the same decision, keeping ledgers identical.
		txs, group, err := decodeBatch(com.Entry.Data)
		if err != nil || n.checkGroupEndorsements(txs, group) != nil {
			continue
		}
		// A commit can fail for real: with a WAL attached, the block must
		// be durable before the world state applies. The block is simply
		// not committed on this peer — the submitter's commit-wait times
		// out and the caller retries, exactly like any other transient
		// ledger failure.
		if blk, err := peer.Ledger().AppendBlock(txs); err != nil {
			if n.met != nil {
				n.met.commitErrs.Inc()
			}
		} else if lead && blk != nil {
			n.noteBlockCut()
		}
	}
}

// checkGroupEndorsements enforces the endorsement policy on one ordered
// batch: at least policyK distinct known peers with valid signatures
// over the batch's GroupDigest.
func (n *Network) checkGroupEndorsements(txs []Transaction, group []Endorsement) error {
	digest := GroupDigest(txs)
	seen := make(map[string]bool, len(group))
	for _, e := range group {
		key, ok := n.keys[e.PeerID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownPeer, e.PeerID)
		}
		if seen[e.PeerID] {
			continue
		}
		if !hckrypto.VerifyEnvelope(key, digest, e.Signature) {
			return ErrBadEndorsement
		}
		seen[e.PeerID] = true
	}
	if len(seen) < n.policyK {
		return fmt.Errorf("%w: have %d, need %d", ErrNotEndorsed, len(seen), n.policyK)
	}
	return nil
}

// SetOrderServiceTime models the ordering service as a serial device
// charging perTx per transaction per round: each ordering round holds
// the device for perTx × batch-size before proposing, so a single
// network's ordering throughput is capped at 1/perTx tx/s no matter
// how many submitters pile on — the honest baseline experiment E21
// scales against, mirroring how E19's DataLake.SetServiceTime models
// disk service time. Zero (the default) disables. Call before the
// network takes traffic.
func (n *Network) SetOrderServiceTime(perTx time.Duration) { n.orderPerTx = perTx }

// noteBlockCut records one block landing on the lead peer's chain and
// the interval since the previous cut — the per-channel block-cut
// cadence metric (ledger_block_cut_seconds).
func (n *Network) noteBlockCut() {
	now := time.Now()
	n.cutMu.Lock()
	n.cutN++
	if !n.lastCut.IsZero() {
		d := now.Sub(n.lastCut)
		n.cutIvls++
		n.cutSum += d
		if n.met != nil {
			n.met.blockCut.Observe(d)
		}
	}
	n.lastCut = now
	n.cutMu.Unlock()
}

// BlockCutStats reports how many blocks the lead peer has cut and the
// mean interval between consecutive cuts (0 until two blocks exist).
func (n *Network) BlockCutStats() (blocks uint64, meanInterval time.Duration) {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	if n.cutIvls > 0 {
		meanInterval = n.cutSum / time.Duration(n.cutIvls)
	}
	return n.cutN, meanInterval
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

// Peer returns a member by ID.
func (n *Network) Peer(id string) (*Peer, error) {
	p, ok := n.peers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, id)
	}
	return p, nil
}

// PeerIDs returns the sorted member list.
func (n *Network) PeerIDs() []string { return append([]string(nil), n.peerIDs...) }

// OrderingLeader reports the ordering cluster's settled leader, if any
// — the consensus-liveness signal a health prober checks. ok is false
// while an election is in flight (or the network is nil).
func (n *Network) OrderingLeader() (id string, ok bool) {
	if n == nil || n.cluster == nil {
		return "", false
	}
	leader := n.cluster.Leader()
	if leader == nil {
		return "", false
	}
	return leader.ID(), true
}

// CheckSubmitPath is the ledger's side-effect-free health check. It
// walks the front half of the submit lifecycle — the FaultSubmit fault
// point (experiencing any injected error or latency exactly as a real
// submission would) and a full policy's worth of endorsements over a
// throwaway transaction — but never proposes to the ordering cluster,
// so no block is appended and no ledger grows. Health probes call this
// on every round; committing a real transaction per probe would bloat
// the audit-grade ledger (and let unauthenticated readiness requests
// force consensus commits).
func (n *Network) CheckSubmitPath() error {
	if err := n.faults.Check(FaultSubmit); err != nil {
		return fmt.Errorf("blockchain: %w", err)
	}
	tx := NewTransaction(EventWorkloadAttest, "monitor", "health-probe", nil,
		map[string]string{"probe": "readyz"})
	if err := n.EndorseAll(&tx); err != nil {
		return fmt.Errorf("blockchain: probing endorsement path: %w", err)
	}
	return nil
}

// NewTransaction builds an unendorsed transaction with a fresh ID.
func NewTransaction(typ EventType, creator, handle string, dataHash []byte, meta map[string]string) Transaction {
	return Transaction{
		ID:        hckrypto.NewUUID(),
		Type:      typ,
		Creator:   creator,
		Handle:    handle,
		DataHash:  dataHash,
		Meta:      meta,
		Timestamp: time.Now().UTC(),
	}
}

// EndorseAll runs the endorse phase alone over tx as a group of one —
// exactly what Submit would collect for it — without ordering anything.
// tx is not modified.
func (n *Network) EndorseAll(tx *Transaction) error {
	_, err := n.endorseGroup([]Transaction{*tx})
	return err
}

// endorseGroup collects the endorsements for one ordering entry. The
// first policyK peers (sorted order) each validate every transaction and
// sign one GroupDigest in parallel — the signatures are independent, so
// the requests don't serialize behind each other. If any of those peers
// rejects, the remaining peers are tried serially in order until the
// policy is met. Deliberately only policyK signatures are requested (not
// all peers): endorsement work stays proportional to policy strictness,
// which is the cost model ablation A2 pins. If the policy cannot be met
// the first rejection reason is returned.
func (n *Network) endorseGroup(txs []Transaction) ([]Endorsement, error) {
	type result struct {
		e   Endorsement
		err error
	}
	k := n.policyK
	results := make([]result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].e, results[i].err = n.peers[n.peerIDs[i]].EndorseGroup(txs)
		}(i)
	}
	wg.Wait()
	group := make([]Endorsement, 0, k)
	var firstErr error
	for i := 0; i < k; i++ {
		if results[i].err != nil {
			if firstErr == nil {
				firstErr = results[i].err
			}
			continue
		}
		group = append(group, results[i].e)
	}
	for i := k; i < len(n.peerIDs) && len(group) < k; i++ {
		e, err := n.peers[n.peerIDs[i]].EndorseGroup(txs)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		group = append(group, e)
	}
	if len(group) < k {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, ErrNotEndorsed
	}
	return group, nil
}

// Submit runs the full lifecycle for one transaction: endorse, order,
// and wait until it is committed on every peer's ledger.
func (n *Network) Submit(tx Transaction, timeout time.Duration) error {
	return n.SubmitBatchCtx([]Transaction{tx}, timeout, telemetry.SpanContext{})
}

// SubmitCtx is Submit continuing a caller's trace: endorse, order and
// commit-wait appear as spans under parent (ingest.Ledger).
func (n *Network) SubmitCtx(tx Transaction, timeout time.Duration, parent telemetry.SpanContext) error {
	return n.SubmitBatchCtx([]Transaction{tx}, timeout, parent)
}

// SubmitBatch endorses the transactions as one group and submits them as
// a single ordering entry (one block), then waits for commit everywhere.
// Batching is how experiment E6 amortizes endorsement and ordering cost.
func (n *Network) SubmitBatch(txs []Transaction, timeout time.Duration) error {
	return n.SubmitBatchCtx(txs, timeout, telemetry.SpanContext{})
}

// phase runs one submit phase under a span and latency histogram, both
// nil-safe no-ops when telemetry is off.
func (n *Network) phase(parent telemetry.SpanContext, name string, h *telemetry.Histogram, f func() error) error {
	sp := n.tracer.StartSpan(name, parent)
	start := h.Start()
	err := f()
	h.ObserveSinceTrace(start, parent.TraceID)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// SubmitBatchCtx is SubmitBatch continuing a caller's trace. Each of
// policyK peers validates every transaction but signs a single
// GroupDigest, so endorsement cost is paid per batch, not per
// transaction. Commit is all-or-nothing; callers that need
// per-transaction error isolation (the Batcher) fall back to individual
// submission on error.
func (n *Network) SubmitBatchCtx(txs []Transaction, timeout time.Duration, parent telemetry.SpanContext) error {
	if len(txs) == 0 {
		return nil
	}
	if err := n.faults.Check(FaultSubmit); err != nil {
		return fmt.Errorf("blockchain: %w", err)
	}
	sp := n.tracer.StartSpan("ledger.submit", parent)
	sp.SetAttr("network", n.name)
	sp.SetAttr("batch", strconv.Itoa(len(txs)))
	if n.met != nil {
		n.met.submits.Inc()
	}
	err := n.submitPhases(txs, timeout, sp.Context())
	if err != nil {
		sp.SetAttr("error", err.Error())
		if n.met != nil {
			n.met.submitErrs.Inc()
		}
	}
	sp.End()
	return err
}

// submitPhases runs endorse → order → commit-wait, each as a traced
// phase so the per-stage breakdown can attribute ordering overhead.
func (n *Network) submitPhases(txs []Transaction, timeout time.Duration, pctx telemetry.SpanContext) error {
	var eh, oh, ch *telemetry.Histogram
	if n.met != nil {
		eh, oh, ch = n.met.endorse, n.met.order, n.met.commitWait
	}
	var group []Endorsement
	if err := n.phase(pctx, "ledger.endorse", eh, func() (err error) {
		if group, err = n.endorseGroup(txs); err != nil {
			return fmt.Errorf("blockchain: endorsing group of %d: %w", len(txs), err)
		}
		return nil
	}); err != nil {
		return err
	}
	data, err := encodeEnvelope(txs, group)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	if err := n.phase(pctx, "ledger.order", oh, func() error {
		if n.orderPerTx > 0 {
			// Serial ordering device (see SetOrderServiceTime): rounds
			// queue behind each other, paying per-transaction service time.
			n.orderMu.Lock()
			time.Sleep(n.orderPerTx * time.Duration(len(txs))) // modeled-device
			n.orderMu.Unlock()
		}
		if _, err := n.cluster.ProposeAndWait(data, timeout); err != nil {
			return fmt.Errorf("blockchain: ordering: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	// Wait until the last tx of the batch lands on every peer; each
	// ledger wakes the wait from its own AppendBlock.
	lastID := txs[len(txs)-1].ID
	return n.phase(pctx, "ledger.commit-wait", ch, func() error {
		for _, id := range n.peerIDs {
			if !n.peers[id].Ledger().WaitCommitted(lastID, deadline) {
				return errors.New("blockchain: commit not observed on all peers within timeout")
			}
		}
		return nil
	})
}

// Close shuts down the ordering cluster and waits for the apply pumps to
// drain; each node closes its apply channel on stop.
func (n *Network) Close() {
	n.stopOnce.Do(func() {
		n.cluster.Stop()
		n.wg.Wait()
	})
}

// OrderingNetwork exposes the ordering cluster's message fabric for
// failure-injection tests (drops, delays, partitions).
func (n *Network) OrderingNetwork() *consensus.Network { return n.cluster.Net }
