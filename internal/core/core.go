// Package core assembles the trusted healthcare data analytics cloud
// platform. The paper's primary contribution is not any single
// component but the weave (§I: the system "'weaves' security, privacy
// and compliance in the lifecycle of the crown-jewels that need
// protection: data, systems, users and devices"), so Platform is where
// the pieces interlock:
//
//   - a trusted infrastructure cloud (measured hosts, attested VMs and
//     containers) hosting the health-cloud instance (Fig 1);
//   - RBAC + federated identity guarding every API;
//   - consent management gating ingestion and export;
//   - the asynchronous ingestion pipeline writing to the encrypted Data
//     Lake with provenance on a permissioned blockchain;
//   - the analytics platform with its model lifecycle;
//   - the external AI-service registry and cached knowledge bases;
//   - the enhanced-client server surface.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"healthcloud/internal/admission"
	"healthcloud/internal/analytics"
	"healthcloud/internal/anonymize"
	"healthcloud/internal/attest"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/client"
	"healthcloud/internal/cloud"
	"healthcloud/internal/consent"
	"healthcloud/internal/durable"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/hccache"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/ingest"
	"healthcloud/internal/kb"
	"healthcloud/internal/metering"
	"healthcloud/internal/monitor"
	"healthcloud/internal/multichain"
	"healthcloud/internal/rbac"
	"healthcloud/internal/resilience"
	"healthcloud/internal/scan"
	"healthcloud/internal/services"
	"healthcloud/internal/shardlake"
	"healthcloud/internal/ssi"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// Config sizes a platform instance.
type Config struct {
	Tenant string
	// LedgerPeers are the provenance-network members; empty disables the
	// blockchain (useful for microbenchmarks). Per §IV-B1's "in a
	// different approach, information about a given record on malware,
	// privacy and integrity can be added to a single blockchain network.
	// It is a design decision." — every event type shares the fabric;
	// Channels partitions it by record key.
	LedgerPeers []string
	// SignatureScheme selects the endorsement signature scheme for the
	// provenance ledger peers: "ed25519" (the default) or "rsa"/"rsa-pss"
	// (the compatibility scheme stored artifacts were endorsed under).
	// The scheme travels in every signature envelope, so chains written
	// under one scheme replay and verify under another.
	SignatureScheme string
	// Channels partitions provenance onto N independent ledger channels
	// (values below 1 mean 1). The trust plane is always an
	// internal/multichain fabric: transactions route by record key on a
	// seeded consistent-hash ring, each channel owns its own ordering
	// cluster, group-commit batcher, and (with DataDir) block WAL
	// directory, and the cross-channel auditor view reconstructs a
	// verifiable per-record total order. The channel count must stay
	// stable for a given DataDir.
	Channels int
	// LedgerSnapshotEvery cuts a ledger world-state snapshot into the
	// WAL every K blocks so restart replay cost stays bounded as the
	// chain grows (0 disables; requires DataDir to have any effect).
	LedgerSnapshotEvery int
	// Deprecated: batching is always on; kept only because
	// bench/platform.go sets it — delete with the next benchmark PR.
	LedgerBatch bool
	// KBLatency simulates WAN distance to the external knowledge bases.
	KBLatency time.Duration
	// KBDataset overrides the default synthetic knowledge base.
	KBDataset *kb.Dataset
	// DataDir roots the durable persistence layer: each Data Lake shard
	// journals to <DataDir>/shards/shard-<i> and each ledger channel
	// write-ahead-logs committed blocks to <DataDir>/ledger/ch-<i>, so a
	// restarted instance replays its state from disk. Empty (the
	// default) keeps everything in memory. Opening a DataDir with
	// interior corruption fails New with durable.ErrCorrupt rather than
	// serving rewritten history.
	DataDir string
	// Shards is the Data Lake shard count (values below 1 mean 1). The
	// lake is always a shardlake cluster: consistent-hash placement,
	// R-way replication, read-repair, hinted handoff, and online
	// rebalancing.
	Shards int
	// Replicas is the replication factor R (default 1; clamped to
	// Shards).
	Replicas int
	// Faults, when set, wires a fault-injection registry through the
	// stores, ledger, remote KB, service registry, and consensus fabric
	// so chaos experiments can break components by name.
	Faults *faultinject.Registry
	// Telemetry, when set, wires the observability subsystem (metrics
	// registry + tracer) through the bus, stores, ledger, consensus,
	// caches, remote KB and service registry. Nil disables it at zero
	// cost beyond nil checks (same contract as Faults).
	Telemetry *telemetry.Telemetry
	// TraceSample overrides the tail-sampler's keep probability for
	// unremarkable traces (0 = keep the tracer's default policy;
	// errored traces and the slowest roots are always kept).
	TraceSample float64
	// Admission enables the admission-control layer: per-tenant token
	// buckets refilled from metering quotas, queue-depth load shedding
	// with honest Retry-After, and priority classes (experiment E24).
	// Off by default: a disabled platform is byte-identical to one built
	// before the subsystem existed (the controller is nil and every
	// surface admits unconditionally).
	Admission bool
	// AdmissionRate/AdmissionBurst are the default per-tenant quota for
	// tenants without a metered one (defaults 200/s, 2x burst).
	AdmissionRate  float64
	AdmissionBurst float64
	// ShedBulkDepth is the ingest backlog above which bulk traffic
	// (uploads, registrations) sheds with 503 + Retry-After (default
	// 256); interactive traffic sheds at 4x that depth. Critical traffic
	// (health probes, consent revocations) is never shed.
	ShedBulkDepth int
	// Monitor enables the self-monitoring layer: a metrics history ring
	// sampled from Telemetry, SLO evaluation with error budgets,
	// dependency-aware health probes behind /readyz and /statusz, and a
	// watchdog that raises PHI-free audit alerts on breach. Requires
	// Telemetry for the ring and SLOs (probes work without it).
	Monitor bool
	// MonitorInterval is the watchdog tick period (default 1s). A
	// negative interval builds the monitor but never starts the loop —
	// tests and experiment E18 call Watchdog().Tick() manually for
	// deterministic timing.
	MonitorInterval time.Duration
}

// Platform is one trusted health cloud instance.
type Platform struct {
	cfg Config

	RBAC   *rbac.System
	KMS    *hckrypto.KMS
	Audit  *audit.Log
	AttSvc *attest.Service
	CM     *audit.ChangeManager
	Cloud  *cloud.Cloud
	Bus    *bus.Bus
	// Lake is the Data Lake the pipeline writes to — the same object as
	// ShardLake, behind the store.Lake interface.
	Lake store.Lake
	// ShardLake is the sharded lake cluster (one shard at the default
	// size).
	ShardLake *shardlake.Lake
	IDMap     *store.IdentityMap
	Consents  *consent.Service
	Scanner   *scan.Scanner
	Verifier  *anonymize.VerificationService
	// Provenance is the anchor channel's (ch-0) network, for callers that
	// inspect or submit to one network directly; nil when the ledger is
	// disabled.
	Provenance *blockchain.Network
	// MultiChain is the partitioned provenance fabric (nil when the
	// ledger is disabled): per-channel ordering, batching and WALs, plus
	// the cross-channel auditor view.
	MultiChain *multichain.Ledger
	Ingest     *ingest.Pipeline
	Analytics  *analytics.Platform
	Services   *services.Registry
	KB         *kb.Dataset
	KBRemote   *kb.RemoteKB
	// KBResilient guards the remote KB with retry, a circuit breaker,
	// and stale-serving graceful degradation; KBCache loads through it.
	KBResilient *kb.ResilientClient
	KBCache     *hccache.Tiered
	// Invalidations propagates cache-consistency events to every cache
	// tier, including enhanced clients (§III).
	Invalidations *hccache.Publisher
	// Identity anchors self-sovereign credentials on the ledger (§IV-B1);
	// nil when the ledger is disabled.
	Identity *ssi.Registry
	// Meter records per-tenant service usage for billing (§II-B
	// Registration Service: "metering and billing of various services").
	Meter *metering.Meter
	// DrainEst watches the ingest backlog and completion rate; it backs
	// the honest Retry-After on transient upload failures and the
	// admission layer's shed hints. Always present (passive until read).
	DrainEst *admission.DrainEstimator
	// Admission is the admission controller (nil unless Config.Admission;
	// nil admits everything).
	Admission *admission.Controller
	// Telemetry is the instance's observability subsystem (nil when
	// disabled); httpapi serves it at /metrics and /traces/{id}.
	Telemetry *telemetry.Telemetry
	// Monitor is the self-monitoring layer (nil when disabled); httpapi
	// serves it at /readyz, /statusz, and /metrics/history.
	Monitor *monitor.Monitor
	// LakeLogs are the per-shard durable journals, keyed by shard name.
	// Empty when DataDir is unset; the per-channel ledger WALs are
	// MultiChain.WALs().
	LakeLogs map[string]*durable.LakeLog
}

// New builds and starts a platform instance.
func New(cfg Config) (*Platform, error) {
	if cfg.Tenant == "" {
		return nil, errors.New("core: tenant required")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.DataDir != "" {
		if err := adoptLegacyLayout(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	p := &Platform{cfg: cfg, Telemetry: cfg.Telemetry,
		LakeLogs: make(map[string]*durable.LakeLog)}
	reg, tracer := cfg.Telemetry.Registry(), cfg.Telemetry.Spans()
	if tracer != nil && cfg.TraceSample > 0 {
		pol := telemetry.DefaultPolicy()
		pol.SampleRate = cfg.TraceSample
		tracer.SetPolicy(pol)
	}

	var err error
	if p.KMS, err = hckrypto.NewKMS(cfg.Tenant); err != nil {
		return nil, fmt.Errorf("core: kms: %w", err)
	}
	p.Audit = audit.NewLog()
	p.AttSvc = attest.NewService()
	p.CM = audit.NewChangeManager(p.AttSvc, p.Audit)
	p.Cloud = cloud.New(p.AttSvc, p.Audit)
	p.RBAC = rbac.NewSystem()
	if err := p.RBAC.CreateTenant(cfg.Tenant); err != nil {
		return nil, fmt.Errorf("core: tenant: %w", err)
	}
	p.Bus = bus.New(bus.WithMaxAttempts(ingestMaxAttempts),
		bus.WithTelemetry(reg, tracer))
	// All shards hang off the one KMS (the trust plane stays unsharded),
	// so replicas are byte-identical sealed records and grants/
	// crypto-shredding cover every copy at once.
	shards := make([]shardlake.Shard, cfg.Shards)
	for i := range shards {
		lake := store.NewDataLake(p.KMS, "svc-storage")
		lake.SetTelemetry(reg)
		name := shardlake.ShardName(i)
		if cfg.DataDir != "" {
			// One directory per shard: replication already moves portable
			// Sealed records, so each replica replays and journals
			// independently of the quorum/repair machinery above it.
			log, err := durable.OpenLake(filepath.Join(cfg.DataDir, "shards", name), lake, durable.Options{
				FaultScope: "durable." + name,
				Faults:     cfg.Faults, Registry: reg, Tracer: tracer,
			})
			if err != nil {
				return nil, fmt.Errorf("core: durable lake %s: %w", name, err)
			}
			lake.SetJournal(log)
			p.LakeLogs[name] = log
		}
		shards[i] = shardlake.Shard{Name: name, Lake: lake}
	}
	p.ShardLake, err = shardlake.New(shards, shardlake.Config{
		Replicas: cfg.Replicas,
		Seed:     lakeRingSeed,
		Faults:   cfg.Faults,
		Registry: reg,
		Tracer:   tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("core: shardlake: %w", err)
	}
	if cfg.DataDir != "" {
		if err := settlePlacement(cfg.DataDir, p.ShardLake); err != nil {
			for _, log := range p.LakeLogs {
				log.Close()
			}
			return nil, err
		}
	}
	p.ShardLake.StartPump(time.Second)
	p.Lake = p.ShardLake
	p.IDMap = store.NewIdentityMap("svc-reident")
	p.Consents = consent.NewService()
	if p.Scanner, err = scan.NewScanner(scan.DefaultSignatures()...); err != nil {
		return nil, fmt.Errorf("core: scanner: %w", err)
	}
	p.Verifier = &anonymize.VerificationService{RequiredK: exportRequiredK}

	// ledger stays a nil interface when the blockchain is disabled. The
	// fabric routes each provenance event to its owning channel's
	// batcher and flushes them on pipeline close.
	var ledger ingest.Ledger
	if len(cfg.LedgerPeers) > 0 {
		scheme, err := hckrypto.ParseScheme(cfg.SignatureScheme)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		mcDir := ""
		if cfg.DataDir != "" {
			mcDir = filepath.Join(cfg.DataDir, "ledger")
		}
		p.MultiChain, err = multichain.New(multichain.Config{
			Name: "hcls-ledger", Channels: cfg.Channels,
			PeerIDs: cfg.LedgerPeers,
			Seed:    ledgerRingSeed,
			DataDir: mcDir, SnapshotEvery: cfg.LedgerSnapshotEvery,
			Scheme: scheme,
			Faults: cfg.Faults, Registry: reg, Tracer: tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("core: multichain ledger: %w", err)
		}
		p.Provenance = p.MultiChain.Channels()[0].Net
		ledger = p.MultiChain
		// The fabric is both submit surface (routing by record key) and
		// query surface (the merged, chain-verified auditor view).
		p.Identity = ssi.NewRegistry(p.MultiChain, p.MultiChain)
	}
	p.Ingest, err = ingest.New(ingest.Deps{
		Tenant: cfg.Tenant, KMS: p.KMS, Lake: p.Lake, IDMap: p.IDMap,
		Bus: p.Bus, Scanner: p.Scanner, Consents: p.Consents,
		Verifier: p.Verifier, Ledger: ledger, Log: p.Audit,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("core: ingest: %w", err)
	}
	p.Ingest.Staging().SetFaults(cfg.Faults)
	p.Ingest.Staging().SetTelemetry(reg)
	p.Ingest.Start(ingestWorkers)

	p.Analytics = analytics.NewPlatform(p.Audit)
	p.Services = services.NewRegistry()
	p.Services.SetFaults(cfg.Faults)
	p.Services.SetTelemetry(reg)
	p.Meter = metering.NewMeter(metering.DefaultRates())

	// The drain estimator is always wired: it is passive (sampled only
	// when read) and the HTTP layer's transient-failure Retry-After uses
	// it whether or not admission control is on.
	p.DrainEst = admission.NewDrainEstimator(p.Ingest.QueueDepth, p.Ingest.Completed, nil)
	if cfg.Admission {
		meter := p.Meter
		p.Admission = admission.New(admission.Config{
			DefaultPerSec: cfg.AdmissionRate,
			DefaultBurst:  cfg.AdmissionBurst,
			Quotas: func(tenant string) (float64, float64, bool) {
				q, ok := meter.QuotaFor(tenant)
				return q.PerSec, q.Burst, ok
			},
			Estimator: p.DrainEst,
			BulkDepth: cfg.ShedBulkDepth,
			Registry:  reg,
		})
	}

	p.KB = cfg.KBDataset
	if p.KB == nil {
		if p.KB, err = kb.Generate(kb.DefaultConfig()); err != nil {
			return nil, fmt.Errorf("core: kb: %w", err)
		}
	}
	p.KBRemote = kb.NewRemoteKB(p.KB, cfg.KBLatency, kb.WithFaults(cfg.Faults),
		kb.WithTelemetry(reg))
	// The cache loads through the resilience layer: transient KB
	// failures are retried, sustained failure trips the breaker, and
	// open-circuit reads degrade to the last-known-good value.
	p.KBResilient = kb.NewResilientClient(p.KBRemote.Loader(),
		resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 5, OpenFor: time.Second}),
		resilience.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	p.KBResilient.Breaker().SetTelemetry(reg, "kb-remote")
	serverTier, err := hccache.New(4096, 0)
	if err != nil {
		return nil, fmt.Errorf("core: kb cache: %w", err)
	}
	if p.KBCache, err = hccache.NewTiered(p.KBResilient.Loader(), serverTier); err != nil {
		return nil, fmt.Errorf("core: kb cache: %w", err)
	}
	p.KBCache.SetTelemetry(reg, tracer)
	p.Invalidations = hccache.NewPublisher(p.Bus)
	if cfg.Monitor {
		p.wireMonitor(cfg, reg, tracer)
	}
	p.Audit.Record(audit.Event{Level: audit.LevelInfo, Service: "platform",
		Action: "instance-start", Resource: cfg.Tenant})
	return p, nil
}

// adoptLegacyLayout renames what a default-size platform wrote before
// every size used the N layout — <dir>/lake, and log files directly
// under <dir>/ledger — to shard-0 and ch-0. Each step is one rename (the
// ledger staged through <dir>/ledger.legacy), so an interrupted adoption
// resumes on the next open; a dir holding both layouts is refused.
func adoptLegacyLayout(dir string) error {
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }
	ledger, staged := filepath.Join(dir, "ledger"), filepath.Join(dir, "ledger.legacy")
	ch0 := filepath.Join(ledger, multichain.ChannelName(0))
	shard0 := filepath.Join(dir, "shards", shardlake.ShardName(0))
	type move struct{ from, to, current string }
	moves := []move{{staged, ch0, ch0}, {filepath.Join(dir, "lake"), shard0, shard0}}
	if logs, _ := filepath.Glob(filepath.Join(ledger, "*.log")); len(logs) > 0 {
		moves = append([]move{{ledger, staged, ch0}}, moves...)
	}
	for _, m := range moves {
		if !exists(m.from) {
			continue
		}
		if exists(m.current) || exists(m.to) {
			return fmt.Errorf("core: data dir holds both the legacy layout (%s) and the current one (%s); remove one", m.from, m.current)
		}
		if err := os.MkdirAll(filepath.Dir(m.to), 0o700); err != nil {
			return fmt.Errorf("core: adopting %s: %w", m.from, err)
		}
		if err := os.Rename(m.from, m.to); err != nil {
			return fmt.Errorf("core: adopting %s: %w", m.from, err)
		}
	}
	return nil
}

// placementMarker names the ring that laid out <DataDir>/shards. It is
// written to <DataDir>/shards/placement once the shards sit where the
// ring places them.
const placementMarker = "balanced-sha256"

// settlePlacement moves a data dir written before the marker existed
// (under an earlier ring) onto the current ring once — on a fresh dir
// there is nothing to move — then writes the marker; a dir marked by any
// other ring is refused.
func settlePlacement(dir string, lake *shardlake.Lake) error {
	path := filepath.Join(dir, "shards", "placement")
	got, err := os.ReadFile(path)
	if err == nil {
		if have := strings.TrimSpace(string(got)); have != placementMarker {
			return fmt.Errorf("core: %s names placement %q, this build places by %q", path, have, placementMarker)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("core: placement marker: %w", err)
	}
	if err := lake.Resettle(); err != nil {
		return fmt.Errorf("core: resettling %s: %w", dir, err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		if _, err = f.WriteString(placementMarker + "\n"); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("core: placement marker: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Monitoring thresholds for the default probes and objectives. The
// ledger probe's ceiling sits well above the few ms a healthy
// in-process endorsement round takes, so only genuine slowdowns (like
// injected submit-path latency) trip it.
const (
	monitorLedgerSlow    = 250 * time.Millisecond
	monitorFsyncSlow     = 250 * time.Millisecond // durable probe's fsync-latency ceiling
	monitorQueueDegraded = 1000                   // ingest backlog before the queue probe degrades
	monitorSLOWindow     = time.Minute
	// ingestWorkers is the background ingest worker count,
	// ingestMaxAttempts the bus deliveries per ingest message before it
	// dead-letters, and exportRequiredK the export k-anonymity policy.
	ingestWorkers     = 4
	ingestMaxAttempts = 5
	exportRequiredK   = 2
	// lakeRingSeed pins shardlake placement so experiments and tests see
	// the same layout on every run.
	lakeRingSeed = 1907
	// ledgerRingSeed pins multichain channel placement the same way —
	// and, because routing must agree with data already on disk, it is
	// part of the durable format of every DataDir.
	ledgerRingSeed = 2112
)

// The pipeline finds this on its ledger by type assertion, so nothing
// else would notice the fabric losing it.
var _ ingest.LedgerFlusher = (*multichain.Ledger)(nil)

// wireMonitor assembles the self-monitoring layer: default dependency
// probes over the components this instance runs, the platform SLOs
// evaluated from the metrics history ring, collectors that copy
// pull-style values into gauges each tick, and the watchdog that turns
// breaches into audit alerts.
func (p *Platform) wireMonitor(cfg Config, reg *telemetry.Registry, tracer *telemetry.Tracer) {
	prober := monitor.NewProber()
	// Collectors copy pull-style values into gauges before each sample,
	// so the ring and /metrics see them without per-operation cost.
	collectors := []func(){
		func() {
			reg.Gauge("ingest_queue_depth").Set(int64(p.Ingest.QueueDepth()))
			reg.Gauge("ingest_dlq_backlog").Set(int64(p.Ingest.DLQBacklog()))
			reg.Gauge("trace_store_traces").Set(int64(tracer.StoredTraces()))
			reg.Gauge("trace_store_evicted").Set(int64(tracer.EvictedTraces()))
			reg.Gauge("trace_store_dropped_spans").Set(int64(tracer.Dropped()))
		},
		p.ShardLake.Collect,
	}

	sl := p.ShardLake
	// The cluster probe distinguishes "replication is absorbing an
	// outage" (degraded, still ready) from "quorum lost" (down): with
	// R-way replication a single dead shard must not fail readiness,
	// only surface as degraded until hints drain.
	prober.AddCheck("data-lake", func() monitor.Health {
		down := 0
		for _, err := range sl.ShardHealth() {
			if err != nil {
				down++
			}
		}
		backlog := sl.HintBacklog()
		switch {
		case down == 0 && backlog == 0:
			return monitor.Healthy(fmt.Sprintf("%d shards serving", len(sl.Shards())))
		case sl.QuorumHolds():
			return monitor.Degraded(fmt.Sprintf(
				"%d shard(s) down, quorum holds (R=%d), %d hints queued",
				down, sl.Replicas(), backlog))
		default:
			return monitor.Down(fmt.Sprintf("%d/%d shards down, quorum lost",
				down, len(sl.Shards())))
		}
	})
	for _, name := range sl.Shards() {
		name := name
		prober.AddCheck("data-lake/"+name, func() monitor.Health {
			if err := sl.ShardPing(name); err != nil {
				if sl.QuorumHolds() {
					return monitor.Degraded(err.Error())
				}
				return monitor.Down(err.Error())
			}
			return monitor.Healthy("serving")
		})
	}
	prober.AddCheck("ingest-queue", func() monitor.Health {
		depth, dlq := p.Ingest.QueueDepth(), p.Ingest.DLQBacklog()
		detail := fmt.Sprintf("depth %d, dlq backlog %d", depth, dlq)
		if depth > monitorQueueDegraded {
			return monitor.Degraded(detail)
		}
		return monitor.Healthy(detail)
	})
	if p.Admission != nil {
		// Shedding is the platform doing its job, not an outage: the
		// probe degrades (visible on /statusz, still ready) while bulk
		// traffic is being refused, and recovers when the backlog drains.
		prober.AddCheck("admission", func() monitor.Health {
			s := p.Admission.Snap()
			detail := fmt.Sprintf("depth %d/%d bulk limit, %.0f/s service, %d tenant bucket(s)",
				s.QueueDepth, s.BulkDepth, s.ServiceRate, s.Tenants)
			if s.Shedding {
				return monitor.Degraded("shedding bulk traffic: " + detail)
			}
			return monitor.Healthy(detail)
		})
	}
	// The KB probe goes straight to the remote, not through the
	// resilient client: probes must not trip the production breaker,
	// and recovery must be visible the moment the dependency heals.
	// A caller-supplied dataset may hold no drugs (kb.Generate always
	// plants some); with nothing to fetch there is no remote to probe.
	if len(p.KB.DrugIDs) > 0 {
		probeKey := "drug:" + p.KB.DrugIDs[0]
		prober.AddCheck("kb-remote", func() monitor.Health {
			if _, _, err := p.KBRemote.Fetch(probeKey); err != nil {
				return monitor.Degraded(err.Error())
			}
			return monitor.Healthy("reachable")
		})
	}
	prober.AddCheck("kb-breaker", func() monitor.Health {
		if s := p.KBResilient.Breaker().State(); s != resilience.Closed {
			return monitor.Degraded("circuit " + s.String())
		}
		return monitor.Healthy("circuit closed")
	})
	var ledgerWALs map[string]*durable.WAL
	if mc := p.MultiChain; mc != nil {
		ledgerWALs = mc.WALs()
		// One sweep per probe round: the aggregate check runs every
		// channel's submit-path check once and the per-channel checks,
		// registered after it (the prober runs checks in registration
		// order), read that result. The check is side-effect free by
		// contract — it endorses but never orders or commits — so probe
		// rounds (and unauthenticated /readyz requests) cannot grow the
		// audit-grade ledger.
		var sweepMu sync.Mutex
		var sweep map[string]multichain.SubmitHealth
		prober.AddCheck("provenance-ledger", func() monitor.Health {
			health := mc.ChannelHealth()
			sweepMu.Lock()
			sweep = health
			sweepMu.Unlock()
			return fabricLedgerHealth(health)
		})
		prober.AddCheck("consensus-leader", func() monitor.Health {
			return fabricLeaderHealth(mc.OrderingLeaders())
		})
		// Per-channel checks keep /statusz attributable: which channel,
		// not just how many. Singly they report Degraded — the aggregate
		// above owns the Down decision. The labelled leader gauges are
		// resolved once here so the collector does no name work per tick;
		// the label keeps a wedged channel attributable on /metrics.
		leaderGauges := make(map[string]*telemetry.Gauge)
		for _, name := range mc.ChannelNames() {
			name := name
			leaderGauges[name] = reg.Gauge(`consensus_leader_present{channel="` + name + `"}`)
			prober.AddCheck("provenance-ledger/"+name, func() monitor.Health {
				sweepMu.Lock()
				h := sweep[name]
				sweepMu.Unlock()
				switch {
				case h.Err != nil:
					return monitor.Degraded(h.Err.Error())
				case h.Elapsed > monitorLedgerSlow:
					return monitor.Degraded(fmt.Sprintf("submit path took %v (ceiling %v)",
						h.Elapsed.Round(time.Millisecond), monitorLedgerSlow))
				}
				return monitor.Healthy("endorsing")
			})
		}
		collectors = append(collectors, func() {
			for name, id := range mc.OrderingLeaders() {
				var present int64
				if id != "" {
					present = 1
				}
				leaderGauges[name].Set(present)
			}
		})
	}
	if len(p.LakeLogs) > 0 || len(ledgerWALs) > 0 {
		// Durability probe: a wedged writer (torn write or failed fsync —
		// the store refuses until reopen) means acks can no longer be
		// honored, so it is Down, not Degraded. Slow fsyncs (injected
		// stall or a saturated disk) surface as Degraded before they
		// become upload-latency SLO breaches.
		prober.AddCheck("durable-storage", func() monitor.Health {
			type named struct {
				name string
				st   durable.Stats
			}
			all := make([]named, 0, len(p.LakeLogs)+len(ledgerWALs))
			for name, log := range p.LakeLogs {
				all = append(all, named{name, log.Stats()})
			}
			for name, wal := range ledgerWALs {
				all = append(all, named{"ledger/" + name, wal.Stats()})
			}
			var wedged []string
			var slow []string
			var replayed int
			var truncated int64
			for _, n := range all {
				if n.st.Wedged {
					wedged = append(wedged, n.name)
				}
				if n.st.LastFsync > monitorFsyncSlow {
					slow = append(slow, fmt.Sprintf("%s=%v", n.name,
						n.st.LastFsync.Round(time.Millisecond)))
				}
				replayed += n.st.ReplayedRecs
				truncated += n.st.TruncatedLen
			}
			sort.Strings(wedged)
			sort.Strings(slow)
			switch {
			case len(wedged) > 0:
				return monitor.Down("writer wedged: " + strings.Join(wedged, ", "))
			case len(slow) > 0:
				return monitor.Degraded(fmt.Sprintf("fsync over %v ceiling: %s",
					monitorFsyncSlow, strings.Join(slow, ", ")))
			default:
				return monitor.Healthy(fmt.Sprintf(
					"%d log(s) serving, replayed %d record(s), truncated %dB at open",
					len(all), replayed, truncated))
			}
		})
	}

	hist := monitor.NewHistory(reg, 0)
	eval := monitor.NewEvaluator(hist, []monitor.Objective{
		{Name: "upload-success", Kind: monitor.RatioObjective, Window: monitorSLOWindow,
			Good:     []string{"ingest_stored_total"},
			Bad:      []string{"ingest_failed_total", "ingest_dead_lettered_total"},
			MinRatio: 0.99},
		{Name: "ingest-p95", Kind: monitor.QuantileObjective, Window: monitorSLOWindow,
			Histogram: "ingest_process_seconds", Quantile: 0.95, MaxDuration: 2 * time.Second},
		{Name: "bus-redelivery", Kind: monitor.RatioObjective, Window: monitorSLOWindow,
			Good: []string{"bus_acked_total"}, Bad: []string{"bus_nacked_total"},
			MinRatio: 0.90},
		{Name: "dlq-empty", Kind: monitor.DeltaObjective, Window: monitorSLOWindow,
			Counter: "ingest_dead_lettered_total", MaxDelta: 0},
	})

	if p.Admission != nil {
		collectors = append(collectors, p.Admission.Collect)
	}

	wd := monitor.NewWatchdog(monitor.WatchdogConfig{
		History: hist, Evaluator: eval, Prober: prober,
		Audit: p.Audit, Tracer: tracer, Collectors: collectors,
	})
	p.Monitor = monitor.New(hist, eval, prober, wd)
	if cfg.MonitorInterval >= 0 {
		interval := cfg.MonitorInterval
		if interval == 0 {
			interval = time.Second
		}
		// With the watchdog refreshing the probe report every tick, the
		// HTTP readiness routes serve that cached report instead of
		// probing dependencies per request; two intervals of slack keeps
		// them current across a late tick. Manual-tick setups (interval
		// < 0) leave the TTL at zero so readiness probes on demand.
		prober.SetCacheTTL(2 * interval)
		wd.Start(interval)
	}
}

// fabricLedgerHealth folds one sweep of per-channel submit-path results
// into one worst-state health. The readiness contract is "degrade,
// don't lie": any failing channel means some slice of record keys
// cannot commit and any slow one means they commit late, so the
// platform is at best Degraded; it is Down only when no channel can
// endorse at all.
func fabricLedgerHealth(health map[string]multichain.SubmitHealth) monitor.Health {
	var failing, slow []string
	for name, h := range health {
		switch {
		case h.Err != nil:
			failing = append(failing, name)
		case h.Elapsed > monitorLedgerSlow:
			slow = append(slow, name)
		}
	}
	sort.Strings(failing)
	sort.Strings(slow)
	switch {
	case len(failing) == len(health):
		return monitor.Down("all channels failing submit path: " + strings.Join(failing, ", "))
	case len(failing) > 0:
		return monitor.Degraded(fmt.Sprintf("%d/%d channel(s) failing submit path: %s",
			len(failing), len(health), strings.Join(failing, ", ")))
	case len(slow) > 0:
		return monitor.Degraded(fmt.Sprintf("submit path over %v ceiling on: %s",
			monitorLedgerSlow, strings.Join(slow, ", ")))
	default:
		return monitor.Healthy(fmt.Sprintf("%d channel(s) endorsing", len(health)))
	}
}

// fabricLeaderHealth is the same worst-state fold for ordering
// leadership: a channel without a settled leader stalls its keys'
// commits (writes block until Raft re-elects), so it degrades
// readiness without taking the healthy channels down with it.
func fabricLeaderHealth(leaders map[string]string) monitor.Health {
	var missing []string
	for name, id := range leaders {
		if id == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	switch {
	case len(missing) == 0:
		return monitor.Healthy(fmt.Sprintf("leaders settled on %d channel(s)", len(leaders)))
	case len(missing) < len(leaders):
		return monitor.Degraded("no settled leader on: " + strings.Join(missing, ", "))
	default:
		return monitor.Down("no settled leader on any channel")
	}
}

// Close stops background machinery. Order matters: the pipeline first
// (its Close flushes the channels' group-commit batchers so in-flight
// provenance events are acked), then the lake's hint pump, the bus and
// the ledger fabric (which owns every channel's batcher, network and
// WAL), and the lake journals last — everything upstream has drained by
// then, so their final fsync + close seals a complete image on disk.
func (p *Platform) Close() {
	p.Monitor.Watchdog().Stop()
	p.Ingest.Close()
	p.ShardLake.Close()
	p.Bus.Close()
	if p.MultiChain != nil {
		p.MultiChain.Close()
	}
	for _, log := range p.LakeLogs {
		log.Close()
	}
}

// ProvisionTrustedInstance racks a host, boots the platform VM from a
// signed image, attests the chain, and returns the host/VM names — the
// "trusted secure health cloud instances" of §II-A.
func (p *Platform) ProvisionTrustedInstance(signer hckrypto.Signer) (hostName, vmID string, err error) {
	p.AttSvc.ApproveImageSigner(signer.Verifier())
	img, err := cloud.NewImage("healthcloud-platform", []byte("platform-os-v1"), signer)
	if err != nil {
		return "", "", err
	}
	if err := p.Cloud.Registry().Register(img); err != nil {
		return "", "", err
	}
	hostName = p.cfg.Tenant + "-host-1"
	if _, err := p.Cloud.ProvisionHost(hostName, 8); err != nil {
		return "", "", err
	}
	vmID = "platform-vm"
	if _, err := p.Cloud.LaunchVM(hostName, vmID, "healthcloud-platform"); err != nil {
		return "", "", err
	}
	if err := p.Cloud.AttestVM(hostName, vmID); err != nil {
		return "", "", fmt.Errorf("core: instance failed attestation: %w", err)
	}
	return hostName, vmID, nil
}

// clientServer adapts the platform to the enhanced-client SDK surface.
type clientServer struct{ p *Platform }

var _ client.Server = (*clientServer)(nil)

func (s *clientServer) Upload(clientID, group string, encrypted []byte) (string, error) {
	// Uploads are bulk-class: first to be refused when the tenant is over
	// quota or the ingest backlog crosses the shed line. A nil controller
	// (admission off) admits unconditionally.
	if d := s.p.Admission.Admit(s.p.cfg.Tenant, admission.ClassBulk); !d.Allowed {
		return "", d.Err()
	}
	id, err := s.p.Ingest.Upload(clientID, group, encrypted)
	if err == nil {
		s.p.Meter.Record(s.p.cfg.Tenant, "ingest", 1, time.Now())
	}
	return id, err
}

func (s *clientServer) FetchKB(key string) ([]byte, error) {
	v, err := s.p.KBCache.Get(key)
	if err == nil {
		s.p.Meter.Record(s.p.cfg.Tenant, "kb-read", 1, time.Now())
	}
	return v, err
}

func (s *clientServer) PullModel(name string) ([]byte, error) {
	payload, err := s.p.Analytics.PushPayload(name)
	if err == nil {
		s.p.Meter.Record(s.p.cfg.Tenant, "model-run", 1, time.Now())
	}
	return payload, err
}

// ClientServer returns the surface enhanced clients talk to.
func (p *Platform) ClientServer() client.Server { return &clientServer{p: p} }

// NewEnhancedClient registers a device and returns a ready SDK client.
func (p *Platform) NewEnhancedClient(deviceID string, cacheSize int) (*client.Client, error) {
	key, err := p.Ingest.RegisterClient(deviceID)
	if err != nil {
		return nil, err
	}
	return client.New(deviceID, key, p.ClientServer(), cacheSize)
}

// SeedDemoProviders registers simulated external AI services (§III) and
// runs the standard accuracy tests so Best has data. Used by
// cmd/healthcloud and tests.
func (p *Platform) SeedDemoProviders() {
	providers := []*services.Provider{
		services.NewProvider("nlu-alpha", services.CapNLU, 12*time.Millisecond, 4*time.Millisecond, 0.99, 0.82, 11),
		services.NewProvider("nlu-beta", services.CapNLU, 45*time.Millisecond, 10*time.Millisecond, 0.995, 0.95, 12),
		services.NewProvider("nlu-gamma", services.CapNLU, 9*time.Millisecond, 2*time.Millisecond, 0.90, 0.88, 13),
		services.NewProvider("textract-alpha", services.CapTextExtraction, 30*time.Millisecond, 5*time.Millisecond, 0.99, 0.91, 14),
		services.NewProvider("textract-beta", services.CapTextExtraction, 22*time.Millisecond, 5*time.Millisecond, 0.97, 0.86, 15),
	}
	for _, pr := range providers {
		p.Services.Register(pr)
	}
	for _, c := range []services.Capability{services.CapNLU, services.CapTextExtraction} {
		for _, name := range p.Services.Providers(c) {
			for i := 0; i < 50; i++ {
				p.Services.Call(name, c)
			}
		}
		p.Services.RunAccuracyTest(c, 100)
	}
}

// MineFacts runs PubMed-style text extraction over a synthetic corpus
// derived from the knowledge base and returns co-occurrence facts with
// at least minSupport supporting papers (§III: "We perform text analysis
// on these papers to extract important scientific facts").
func (p *Platform) MineFacts(papers, minSupport int) []kb.Fact {
	corpus := kb.GenerateCorpus(p.KB, papers, 17)
	return corpus.MineFacts(minSupport)
}

// InvalidateKB drops a knowledge-base key from the server tier and
// broadcasts the invalidation to every subscribed cache (enhanced
// clients included), closing the stale-read window for changed data.
func (p *Platform) InvalidateKB(key string) error {
	p.KBCache.Invalidate(key)
	return p.Invalidations.Publish(key)
}

// AttachInvalidationListener subscribes an enhanced client's cache to
// the platform's invalidation stream. Callers Stop the listener when the
// device disconnects.
func (p *Platform) AttachInvalidationListener(dev *client.Client, name string) (*hccache.Listener, error) {
	return hccache.NewListener(p.Bus, name, func(key string) { dev.InvalidateKey(key) })
}

// Components lists every named component of Figures 1–3 that this
// instance actually instantiates, sorted. TestFigure1ComponentInventory
// asserts the inventory.
func (p *Platform) Components() []string {
	out := []string{
		"analytics-platform",
		"api-management",
		"attestation-service",
		"audit-log",
		"change-management",
		"consent-management",
		"data-ingestion",
		"data-lake",
		"enhanced-client-management",
		"export-service",
		"federated-identity",
		"image-management",
		"intercloud-gateway-support",
		"internal-messaging",
		"key-management",
		"knowledge-bases",
		"logging-monitoring",
		"malware-filtration",
		"privacy-management-rbac",
		"registration-service",
		"resource-provisioning",
		"service-registry",
		"tpm-vtpm",
	}
	if p.Provenance != nil {
		out = append(out, "provenance-blockchain")
	}
	sort.Strings(out)
	return out
}

// HIPAAControl is one Fig 8 control with its implementing component.
type HIPAAControl struct {
	Pillar    string // administrative | physical | technical | policies
	Name      string
	Component string
}

// HIPAAControls maps Fig 8's four pillars to the platform mechanisms
// that implement them.
func (p *Platform) HIPAAControls() []HIPAAControl {
	return []HIPAAControl{
		{"administrative", "workforce-access-management", "privacy-management-rbac"},
		{"administrative", "security-incident-procedures", "malware-filtration"},
		{"administrative", "change-management", "change-management"},
		{"physical", "device-and-media-controls", "key-management (crypto-shredding)"},
		{"physical", "facility-access(simulated)", "tpm-vtpm measured boot"},
		{"technical", "access-control", "privacy-management-rbac"},
		{"technical", "audit-controls", "audit-log + provenance-blockchain"},
		{"technical", "integrity", "hmac + redactable-signatures"},
		{"technical", "transmission-security", "client-shared-key encryption"},
		{"policies", "documentation", "audit-log change trail"},
		{"policies", "consent", "consent-management"},
	}
}

// SyncConsentProvenance drains pending consent events onto the ledger
// (§IV: "Blockchain enables ... consent provenance as required by GDPR
// and HIPAA"). It returns the number of events committed.
func (p *Platform) SyncConsentProvenance(timeout time.Duration) (int, error) {
	events := p.Consents.Events()
	if p.MultiChain == nil || len(events) == 0 {
		return 0, nil
	}
	txs := make([]blockchain.Transaction, 0, len(events))
	for _, e := range events {
		typ := blockchain.EventConsentGranted
		if e.Kind == "revoked" {
			typ = blockchain.EventConsentRevoked
		}
		txs = append(txs, blockchain.NewTransaction(typ, "consent-service", e.Patient,
			nil, map[string]string{"group": e.Group, "purpose": string(e.Purpose)}))
	}
	// Routed by patient, so each patient's consent history stays a
	// totally ordered sequence on one channel.
	if err := p.MultiChain.SubmitBatch(txs, timeout); err != nil {
		return 0, fmt.Errorf("core: consent provenance: %w", err)
	}
	return len(txs), nil
}

// CheckAccess is the API-management decision: authenticate (caller
// already did), then consult the privacy-management RBAC.
func (p *Platform) CheckAccess(userID string, action rbac.Action, resource string, scope rbac.Scope, env string) error {
	err := p.RBAC.Check(userID, action, resource, scope, env)
	outcome := "allow"
	if err != nil {
		outcome = "deny"
	}
	p.Audit.Record(audit.Event{Level: audit.LevelInfo, Service: "api-mgmt",
		Action: "access-" + outcome, Actor: userID, Resource: resource})
	return err
}
