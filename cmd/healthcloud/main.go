// Command healthcloud runs a trusted health cloud instance with its REST
// API on localhost. It seeds a demo tenant, an approved identity
// provider, and three users (admin, ingestor, auditor), then prints a
// ready-to-paste login token request for each.
//
//	go run ./cmd/healthcloud -addr :8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"healthcloud/internal/core"
	"healthcloud/internal/httpapi"
	"healthcloud/internal/kb"
	"healthcloud/internal/rbac"
	"healthcloud/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	tenant := flag.String("tenant", "demo-health", "tenant name")
	ledger := flag.Bool("ledger", true, "run the provenance blockchain")
	channels := flag.Int("channels", 1, "provenance ledger channels: records partition by key across independently ordered, group-committing channels")
	snapEvery := flag.Int("ledger-snapshot-every", 0, "cut a ledger world-state snapshot into the WAL every K blocks so restarts replay from the snapshot instead of the full chain (0 disables)")
	obs := flag.Bool("telemetry", true, "serve metrics at /metrics and traces at /traces/{id}")
	traceSample := flag.Float64("trace-sample", 0, "tail-sampling keep probability for unremarkable traces (0 = keep all; errored traces and the slowest roots are always kept)")
	mon := flag.Bool("monitor", true, "run the self-monitoring watchdog (/readyz, /statusz, /metrics/history)")
	monInterval := flag.Duration("monitor-interval", time.Second, "watchdog tick period")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (own listener; empty disables)")
	shards := flag.Int("shards", 1, "Data Lake shard count (consistent-hash placement across shards)")
	replicas := flag.Int("replicas", 1, "Data Lake replication factor R (clamped to -shards)")
	dataDir := flag.String("data-dir", "", "root directory for durable storage: shards/shard-<i> lake journals + ledger/ch-<i> WALs, replayed on restart (empty = in-memory only)")
	sigScheme := flag.String("sig-scheme", "", "ledger endorsement signature scheme: ed25519 (default) or rsa; chains endorsed under either scheme verify regardless (algorithm-tagged envelopes)")
	adm := flag.Bool("admission", false, "enable admission control: per-tenant token buckets (429) and queue-depth load shedding (503), both with honest Retry-After")
	admRate := flag.Float64("admission-rate", 0, "default per-tenant admission rate in requests/sec for tenants without a metered quota (0 = 200/s)")
	admBurst := flag.Float64("admission-burst", 0, "default per-tenant burst capacity (0 = 2x rate)")
	shedBulk := flag.Int("shed-bulk-depth", 0, "ingest backlog above which bulk traffic (uploads, registrations) sheds (0 = 256; interactive traffic at 4x, critical never)")
	flag.Parse()

	kbCfg := kb.DefaultConfig()
	kbCfg.Drugs, kbCfg.Diseases = 60, 40
	dataset, err := kb.Generate(kbCfg)
	if err != nil {
		return err
	}
	cfg := core.Config{Tenant: *tenant, KBDataset: dataset, KBLatency: 10 * time.Millisecond,
		Shards: *shards, Replicas: *replicas, DataDir: *dataDir}
	if *ledger {
		cfg.LedgerPeers = []string{"hospital", "audit-svc", "data-protection"}
		cfg.Channels = *channels
		cfg.LedgerSnapshotEvery = *snapEvery
		cfg.SignatureScheme = *sigScheme
	}
	if *obs {
		cfg.Telemetry = telemetry.New()
		cfg.TraceSample = *traceSample
	}
	if *mon {
		cfg.Monitor = true
		cfg.MonitorInterval = *monInterval
	}
	if *adm {
		cfg.Admission = true
		cfg.AdmissionRate = *admRate
		cfg.AdmissionBurst = *admBurst
		cfg.ShedBulkDepth = *shedBulk
	}
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		var pprofLn net.Addr
		pprofSrv, pprofLn, err = telemetry.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("starting pprof listener: %w", err)
		}
		defer pprofSrv.Close()
		fmt.Printf("pprof profiling on http://%s/debug/pprof/\n", pprofLn)
	}
	platform, err := core.New(cfg)
	if err != nil {
		return err
	}
	platform.SeedDemoProviders()

	idp, err := rbac.NewIdentityProvider("demo-sso")
	if err != nil {
		return err
	}
	platform.RBAC.ApproveIdentityProvider("demo-sso", idp.VerifyKey())
	users := map[string]rbac.Role{
		"admin@demo":   rbac.RoleAdmin,
		"nurse@demo":   rbac.RoleIngestor,
		"auditor@demo": rbac.RoleAuditor,
	}
	fmt.Printf("healthcloud instance %q listening on http://%s\n", *tenant, *addr)
	fmt.Printf("components: %d | lake: %d shard(s) x %d replica(s) | ledger: %v (%d channel(s)) | telemetry: %v | monitor: %v | admission: %v\n\n",
		len(platform.Components()), len(platform.ShardLake.Shards()), platform.ShardLake.Replicas(), *ledger, *channels, *obs, *mon, *adm)
	fmt.Println("demo login tokens (POST each body to /api/v1/login):")
	enc := json.NewEncoder(os.Stdout)
	for subject, role := range users {
		userID := "demo-sso:" + subject
		if err := platform.RBAC.RegisterUser(*tenant, userID); err != nil {
			return err
		}
		if err := platform.RBAC.AssignRole(userID, role, rbac.Scope{Tenant: *tenant}, ""); err != nil {
			return err
		}
		tok, err := idp.Issue(subject, *tenant, 24*time.Hour)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s (%s):\n", subject, role)
		if err := enc.Encode(tok); err != nil {
			return err
		}
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      httpapi.New(platform),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	// Graceful shutdown on SIGINT/SIGTERM, in drain order: stop taking
	// uploads (srv.Shutdown finishes in-flight requests first), then
	// platform.Close drains the ingest workers, flushes the ledger
	// batchers, closes the bus and the channels, and finally syncs and
	// closes the durable logs — so every acknowledged upload is on disk
	// before exit. A SIGKILL instead exercises the crash-recovery path
	// (experiment E20): restart replays the same state from the logs.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		drain(nil, pprofSrv, platform)
		return err
	case sig := <-stop:
		fmt.Printf("\n%s: draining and flushing durable logs\n", sig)
		drain(srv, pprofSrv, platform)
		return nil
	}
}

// drain is the graceful-shutdown sequence: finish in-flight API
// requests (bounded), close the pprof side listener so its port is
// released, then close the platform — ingest workers drain, ledger
// batchers flush, and the durable logs sync before exit. Any server
// may be nil.
func drain(api, pprof *http.Server, platform interface{ Close() }) {
	if api != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := api.Shutdown(ctx); err != nil {
			api.Close()
		}
	}
	if pprof != nil {
		pprof.Close()
	}
	platform.Close()
}
