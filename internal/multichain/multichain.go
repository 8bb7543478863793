// Package multichain partitions provenance across N independent
// blockchain channels — the trust-plane analogue of what
// internal/shardlake did for the Data Lake. The paper's Fabric model
// is explicitly channel-based (§IV-B1 discusses one network per event
// family as "a design decision"); hChain 4.0 makes the same pitch for
// EHR provenance at scale. Each channel is a full blockchain.Network:
// its own peers, endorsement policy, Raft ordering cluster, commit
// pumps, group-commit Batcher, and (when durable) its own block WAL
// directory — so endorsement, ordering, fsync and commit all
// parallelize across channels.
//
// Transactions route by record key (the data handle, falling back to
// the creator) on the same seeded consistent-hash ring idiom as
// shardlake, which guarantees the property the auditor view depends
// on: every event for one record lands on one channel, so that
// channel's chain alone carries the record's total order. The Auditor
// merges per-channel chains into one verifiable, deterministic view
// (see auditor.go for the ordering rules).
package multichain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/durable"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/shardlake"
	"healthcloud/internal/telemetry"
)

// ringVnodes matches shardlake's virtual-node count: enough spread for
// a handful of channels without measurable ring cost.
const ringVnodes = 64

// ChannelName is the conventional name of the i-th channel.
func ChannelName(i int) string { return fmt.Sprintf("ch-%d", i) }

// Config sizes a multi-channel provenance fabric.
type Config struct {
	// Name is the base network name; channel i's network is named
	// "<Name>/ch-<i>" so metric labels and traces stay distinguishable.
	Name string
	// Channels is the partition count (>= 1).
	Channels int
	// PeerIDs and PolicyK configure every channel identically: the same
	// organizations endorse on every channel, mirroring Fabric channels
	// sharing a membership.
	PeerIDs []string
	PolicyK int
	// Seed pins ring placement so the same key routes to the same
	// channel on every run and every restart. Changing the seed (or the
	// channel count) over an existing DataDir reshuffles routing and is
	// refused at open time via the per-channel WAL chains themselves:
	// replayed blocks would no longer match incoming traffic's routing.
	Seed int64
	// DataDir, when set, gives every channel its own WAL directory
	// (<DataDir>/ch-<i>) replayed on open. The channel count must stay
	// stable for a given DataDir.
	DataDir string
	// SnapshotEvery cuts a world-state snapshot into each channel's WAL
	// every K blocks (0 disables; nothing to cut into without DataDir).
	SnapshotEvery int
	// OrderServiceTime > 0 installs the serial ordering device model on
	// every channel (experiments; see Network.SetOrderServiceTime).
	OrderServiceTime time.Duration
	// Scheme pins the endorsement signature scheme on every channel
	// (zero value = the platform default; see
	// blockchain.WithSignatureScheme).
	Scheme hckrypto.Scheme

	Faults   *faultinject.Registry
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

// Channel is one independent provenance partition. Single submits go
// through Batcher (natural group commit: a lone tx commits at once).
type Channel struct {
	Name     string
	Net      *blockchain.Network
	Batcher  *blockchain.Batcher
	WAL      *durable.WAL // nil unless Config.DataDir
	routed   *telemetry.Counter
	routeLat *telemetry.Histogram
}

// ledger returns the channel's reference ledger copy (first sorted
// peer; all peers converge and VerifyChain audits divergence).
func (c *Channel) ledger() *blockchain.Ledger {
	peer, err := c.Net.Peer(c.Net.PeerIDs()[0])
	if err != nil {
		// Unreachable: the first PeerID always resolves.
		panic(err)
	}
	return peer.Ledger()
}

// Ledger is the multi-channel fabric. It satisfies the same write
// interfaces as a single network or batcher (ingest.Ledger,
// ingest.LedgerFlusher, ssi.Ledger) plus a merged
// read surface (Audit, satisfying ssi.LedgerQuerier), so callers swap
// it in wherever one channel used to sit.
type Ledger struct {
	cfg    Config
	ring   *shardlake.Ring
	names  []string
	byName map[string]*Channel
	chans  []*Channel
	tracer *telemetry.Tracer

	closeOnce sync.Once
}

// New builds the fabric: N channels, each restored from its own WAL
// when DataDir is set.
func New(cfg Config) (*Ledger, error) {
	if cfg.Name == "" {
		cfg.Name = "multichain"
	}
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("multichain: channel count %d out of range (>= 1)", cfg.Channels)
	}
	if len(cfg.PeerIDs) == 0 {
		return nil, errors.New("multichain: at least one peer required")
	}
	if cfg.PolicyK <= 0 {
		cfg.PolicyK = len(cfg.PeerIDs)/2 + 1
	}
	m := &Ledger{
		cfg:    cfg,
		names:  make([]string, cfg.Channels),
		byName: make(map[string]*Channel, cfg.Channels),
		chans:  make([]*Channel, 0, cfg.Channels),
		tracer: cfg.Tracer,
	}
	for i := range m.names {
		m.names[i] = ChannelName(i)
	}
	m.ring = shardlake.NewBalancedRing(m.names, ringVnodes, cfg.Seed)
	for _, name := range m.names {
		ch, err := m.openChannel(name)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.byName[name] = ch
		m.chans = append(m.chans, ch)
	}
	if cfg.Registry != nil {
		cfg.Registry.Gauge("multichain_channels").Set(int64(cfg.Channels))
	}
	return m, nil
}

// openChannel builds one channel's network, replays and attaches its
// WAL, and fronts it with the group-commit batcher.
func (m *Ledger) openChannel(name string) (*Channel, error) {
	cfg := m.cfg
	net, err := blockchain.NewNetwork(cfg.Name+"/"+name, cfg.PeerIDs, cfg.PolicyK,
		blockchain.WithSignatureScheme(cfg.Scheme),
		blockchain.WithFaults(cfg.Faults),
		blockchain.WithTelemetry(cfg.Registry, cfg.Tracer))
	if err != nil {
		return nil, fmt.Errorf("multichain: channel %s: %w", name, err)
	}
	ch := &Channel{Name: name, Net: net}
	if cfg.OrderServiceTime > 0 {
		net.SetOrderServiceTime(cfg.OrderServiceTime)
	}
	if cfg.Registry != nil {
		ch.routed = cfg.Registry.Counter(fmt.Sprintf("multichain_routed_total{channel=%q}", name))
		ch.routeLat = cfg.Registry.Histogram(fmt.Sprintf("multichain_route_seconds{channel=%q}", name))
	}
	if cfg.DataDir != "" {
		wal, rep, werr := durable.OpenWALSnapshot(filepath.Join(cfg.DataDir, name), durable.Options{
			FaultScope: "durable.ledger." + name,
			Faults:     cfg.Faults, Registry: cfg.Registry, Tracer: cfg.Tracer,
		})
		if werr != nil {
			net.Close()
			return nil, fmt.Errorf("multichain: channel %s wal: %w", name, werr)
		}
		for _, id := range net.PeerIDs() {
			peer, perr := net.Peer(id)
			if perr != nil {
				net.Close()
				wal.Close()
				return nil, fmt.Errorf("multichain: channel %s: %w", name, perr)
			}
			var rerr error
			if rep.Snapshot != nil {
				rerr = peer.Ledger().RestoreSnapshot(*rep.Snapshot, rep.Blocks)
			} else {
				rerr = peer.Ledger().Restore(rep.Blocks)
			}
			if rerr != nil {
				net.Close()
				wal.Close()
				return nil, fmt.Errorf("multichain: channel %s restore (%s): %w", name, id, rerr)
			}
			peer.Ledger().SetWAL(wal)
			peer.Ledger().SetSnapshotEvery(cfg.SnapshotEvery)
		}
		ch.WAL = wal
	}
	ch.Batcher = blockchain.NewBatcher(net, blockchain.BatcherConfig{
		Registry: cfg.Registry, Tracer: cfg.Tracer,
	})
	return ch, nil
}

// RouteKey is the partition key of one transaction: the record handle
// when present (all events of one record share it, which is what gives
// the per-record total order), the creator otherwise, falling back to
// the transaction ID so keyless traffic still spreads.
func RouteKey(tx *blockchain.Transaction) string {
	switch {
	case tx.Handle != "":
		return tx.Handle
	case tx.Creator != "":
		return tx.Creator
	default:
		return tx.ID
	}
}

// routeDigest pre-digests a route key before ring placement. The
// balanced ring already hashes keys with SHA-256; the digest stays
// because routing is part of the durable format — every channel's
// existing records were placed through it.
func routeDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// Route returns the channel name owning a key — deterministic for a
// given (channel count, seed) on every run and rebuild.
func (m *Ledger) Route(key string) string {
	return m.ring.Placement(routeDigest(key), 1)[0]
}

// ChannelNames returns the channel names in index order.
func (m *Ledger) ChannelNames() []string { return append([]string(nil), m.names...) }

// Channels returns the channels in index order.
func (m *Ledger) Channels() []*Channel { return append([]*Channel(nil), m.chans...) }

// Submit routes one transaction to its owning channel and runs the
// full submit lifecycle there (ssi.Ledger).
func (m *Ledger) Submit(tx blockchain.Transaction, timeout time.Duration) error {
	return m.SubmitCtx(tx, timeout, telemetry.SpanContext{})
}

// SubmitCtx is Submit continuing a caller's trace: the routing
// decision appears as a span carrying the channel label, then the
// channel's own submit spans nest under it (ingest.Ledger).
func (m *Ledger) SubmitCtx(tx blockchain.Transaction, timeout time.Duration, parent telemetry.SpanContext) error {
	ch := m.byName[m.Route(RouteKey(&tx))]
	sp := m.tracer.StartSpan("multichain.route", parent)
	sc := sp.Context()
	sp.SetAttr("channel", ch.Name)
	if ch.routed != nil {
		ch.routed.Inc()
	}
	start := ch.routeLat.Start()
	err := ch.Batcher.SubmitCtx(tx, timeout, sc)
	ch.routeLat.ObserveSinceTrace(start, sc.TraceID)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// SubmitBatch splits a batch by owning channel and submits the groups
// concurrently — cross-channel parallelism even for one caller. Each
// group is one ordering batch on its channel. The first error is
// returned (all groups are attempted).
func (m *Ledger) SubmitBatch(txs []blockchain.Transaction, timeout time.Duration) error {
	if len(txs) == 0 {
		return nil
	}
	groups := make(map[string][]blockchain.Transaction, len(m.chans))
	for _, tx := range txs {
		name := m.Route(RouteKey(&tx))
		groups[name] = append(groups[name], tx)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(m.chans))
	for i, ch := range m.chans {
		group := groups[ch.Name]
		if len(group) == 0 {
			continue
		}
		if ch.routed != nil {
			ch.routed.Add(uint64(len(group)))
		}
		wg.Add(1)
		go func(i int, ch *Channel, group []blockchain.Transaction) {
			defer wg.Done()
			errs[i] = ch.Net.SubmitBatch(group, timeout)
		}(i, ch, group)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Flush drains every channel's batcher (ingest.LedgerFlusher).
func (m *Ledger) Flush() {
	for _, ch := range m.chans {
		ch.Batcher.Flush()
	}
}

// SubmitHealth is one channel's submit-path check: its error (nil =
// endorsing) and how long the endorsement round took.
type SubmitHealth struct {
	Err     error
	Elapsed time.Duration
}

// ChannelHealth runs every channel's side-effect-free submit-path
// check once, timing each channel on its own, keyed by channel name.
// One call is one probe sweep: the monitor's aggregate and per-channel
// ledger checks all read the same result.
func (m *Ledger) ChannelHealth() map[string]SubmitHealth {
	out := make(map[string]SubmitHealth, len(m.chans))
	for _, ch := range m.chans {
		start := time.Now()
		err := ch.Net.CheckSubmitPath()
		out[ch.Name] = SubmitHealth{Err: err, Elapsed: time.Since(start)}
	}
	return out
}

// OrderingLeaders reports each channel's settled ordering leader ("" =
// election in flight), keyed by channel name — the per-channel
// consensus-liveness signal the labelled leader gauges export.
func (m *Ledger) OrderingLeaders() map[string]string {
	out := make(map[string]string, len(m.chans))
	for _, ch := range m.chans {
		id, ok := ch.Net.OrderingLeader()
		if !ok {
			id = ""
		}
		out[ch.Name] = id
	}
	return out
}

// StateHashes returns each channel's reference-ledger state hash,
// keyed by channel name — the per-channel golden values crash-recovery
// tests compare across restarts.
func (m *Ledger) StateHashes() map[string]string {
	out := make(map[string]string, len(m.chans))
	for _, ch := range m.chans {
		out[ch.Name] = ch.ledger().StateHash()
	}
	return out
}

// TxCount sums committed transactions across all channels (reference
// ledgers).
func (m *Ledger) TxCount() int {
	total := 0
	for _, ch := range m.chans {
		total += ch.ledger().TxCount()
	}
	return total
}

// VerifyAll re-verifies every peer chain on every channel — the
// auditor's integrity sweep before trusting any merged view.
func (m *Ledger) VerifyAll() error {
	var errs []error
	for _, ch := range m.chans {
		for _, id := range ch.Net.PeerIDs() {
			peer, err := ch.Net.Peer(id)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s/%s: %w", ch.Name, id, err))
				continue
			}
			if err := peer.Ledger().VerifyChain(); err != nil {
				errs = append(errs, fmt.Errorf("%s/%s: %w", ch.Name, id, err))
			}
		}
	}
	return errors.Join(errs...)
}

// WALs returns the per-channel write-ahead logs, keyed by channel
// name; empty without DataDir. The durable-storage probe folds these
// into its wedged/slow-fsync sweep.
func (m *Ledger) WALs() map[string]*durable.WAL {
	out := make(map[string]*durable.WAL, len(m.chans))
	for _, ch := range m.chans {
		if ch.WAL != nil {
			out[ch.Name] = ch.WAL
		}
	}
	return out
}

// Close shuts the fabric down in drain order per channel: batcher
// first (flushes its queue), then the network (stops ordering and
// waits for commit pumps), then the WAL (final fsync seals the image).
func (m *Ledger) Close() {
	m.closeOnce.Do(func() {
		var wg sync.WaitGroup
		for _, ch := range m.chans {
			wg.Add(1)
			go func(ch *Channel) {
				defer wg.Done()
				ch.Batcher.Close()
				ch.Net.Close()
				if ch.WAL != nil {
					ch.WAL.Close()
				}
			}(ch)
		}
		wg.Wait()
	})
}
