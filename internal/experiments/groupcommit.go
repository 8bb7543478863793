package experiments

import (
	"fmt"
	"sort"
	"time"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/ingest"
	"healthcloud/internal/scan"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// e17Warmup uploads run untimed before each arm's measured section.
const e17Warmup = 16

// e17Sample is one arm's measurement.
type e17Sample struct {
	tps       float64 // sustained ingest throughput, uploads/s
	provMean  float64 // provenance stage mean wall time per upload, ms
	provShare float64 // provenance stage share of pipeline time, %
	meanBatch float64 // mean group-commit size (batched arms only)
}

// e17Run stands up a fresh full pipeline (3-peer 2-of-3 provenance
// ledger endorsing under the given signature scheme) with the given
// worker count, optionally fronted by the group-commit batcher, pushes
// `uploads` single-patient bundles through it, and returns the sustained
// throughput. Every upload must reach the stored state — a silently
// failing arm would fake its throughput.
func e17Run(workers, uploads int, batched bool, scheme hckrypto.Scheme) (e17Sample, error) {
	var s e17Sample
	tel := telemetry.New()
	kms, err := hckrypto.NewKMS("groupcommit")
	if err != nil {
		return s, err
	}
	msgBus := bus.New(bus.WithMaxAttempts(5))
	defer msgBus.Close()
	scanner, err := scan.NewScanner(scan.DefaultSignatures()...)
	if err != nil {
		return s, err
	}
	network, err := blockchain.NewNetwork("provenance",
		[]string{"p0", "p1", "p2"}, 2,
		blockchain.WithSignatureScheme(scheme),
		blockchain.WithTelemetry(tel.Registry(), tel.Spans()))
	if err != nil {
		return s, err
	}
	defer network.Close()
	var ledger ingest.Ledger = network
	var batcher *blockchain.Batcher
	if batched {
		batcher = blockchain.NewBatcher(network, blockchain.BatcherConfig{
			MaxBatch: 64,
			Registry: tel.Registry(), Tracer: tel.Spans(),
		})
		defer batcher.Close()
		ledger = batcher
	}
	consents := consent.NewService()
	pipe, err := ingest.New(ingest.Deps{
		Tenant: "groupcommit", KMS: kms,
		Lake:  store.NewDataLake(kms, "svc-storage"),
		IDMap: store.NewIdentityMap("svc-reident"),
		Bus:   msgBus, Scanner: scanner, Consents: consents,
		Verifier: &anonymize.VerificationService{},
		Ledger:   ledger, Log: audit.NewLog(),
		Telemetry: tel,
	})
	if err != nil {
		return s, err
	}
	defer pipe.Close()
	pipe.Start(workers)
	key, err := pipe.RegisterClient("e17-client")
	if err != nil {
		return s, err
	}

	// Pre-build payloads outside the timed section.
	payloads := make([][]byte, uploads)
	for i := range payloads {
		pid := fmt.Sprintf("patient-%06d", i)
		consents.Grant(pid, "study", consent.PurposeResearch, 0)
		b := fhir.NewBundle("collection")
		if err := b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: pid, Gender: "other"}); err != nil {
			return s, err
		}
		raw, err := fhir.Marshal(b)
		if err != nil {
			return s, err
		}
		if payloads[i], err = hckrypto.EncryptGCM(key, raw, []byte("e17-client")); err != nil {
			return s, err
		}
	}

	// Warm-up (untimed): fault the code paths in, grow the heap, let the
	// bus/worker handoff reach steady state.
	warm := payloads[:e17Warmup]
	timed := payloads[e17Warmup:]
	for _, payload := range warm {
		if _, err := pipe.Upload("e17-client", "study", payload); err != nil {
			return s, err
		}
	}
	if err := pipe.WaitForIdle(120 * time.Second); err != nil {
		return s, err
	}

	start := time.Now()
	for _, payload := range timed {
		if _, err := pipe.Upload("e17-client", "study", payload); err != nil {
			return s, err
		}
	}
	if err := pipe.WaitForIdle(120 * time.Second); err != nil {
		return s, err
	}
	elapsed := time.Since(start)

	stored := 0
	for _, st := range pipe.Statuses() {
		if st.State == ingest.StateStored {
			stored++
		}
	}
	if stored != uploads {
		return s, fmt.Errorf("E17: %d/%d uploads stored (workers=%d batched=%v)",
			stored, uploads, workers, batched)
	}
	s.tps = float64(len(timed)) / elapsed.Seconds()

	snap := tel.Metrics.Snapshot()
	if prov, ok := snap.Histograms[`ingest_stage_seconds{stage="provenance"}`]; ok {
		s.provMean = prov.Mean().Seconds() * 1000
		if pl, ok := snap.Histograms["ingest_process_seconds"]; ok && pl.Sum > 0 {
			s.provShare = prov.Sum.Seconds() / pl.Sum.Seconds() * 100
		}
	}
	if batcher != nil {
		s.meanBatch = batcher.Stats().MeanBatchSize()
	}
	return s, nil
}

// e17Median picks the sample with the median throughput.
func e17Median(samples []e17Sample) e17Sample {
	sorted := append([]e17Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].tps < sorted[j].tps })
	return sorted[len(sorted)/2]
}

// e17Pair runs the unbatched and batched arms back to back `rounds`
// times — drift (thermal, neighbours, GC phase) hits both halves of a
// round — and returns each side's median.
func e17Pair(workers, uploads, rounds int, scheme hckrypto.Scheme) (un, ba e17Sample, err error) {
	var uns, bas []e17Sample
	for i := 0; i < rounds; i++ {
		u, err := e17Run(workers, uploads, false, scheme)
		if err != nil {
			return un, ba, err
		}
		b, err := e17Run(workers, uploads, true, scheme)
		if err != nil {
			return un, ba, err
		}
		uns, bas = append(uns, u), append(bas, b)
	}
	return e17Median(uns), e17Median(bas), nil
}

// E17GroupCommit measures what group-commit provenance batching buys the
// ingest path. E16 showed provenance (endorse + order + commit-wait)
// consumes ~97% of pipeline time; E6 showed batching amortizes ledger
// cost 2.9× at the blockchain layer. E17 closes the loop end to end:
// sustained ingest throughput at worker counts {1, 4, 16}, batching off
// (one Submit per upload, the pre-batcher behaviour) versus on (workers
// enqueue into the group-commit Batcher, max 64 tx per group, one group
// endorsement + one ordering round per group; a group is whatever
// arrived while the previous commit was in flight).
//
// Expected shape: at 16 workers the batcher coalesces concurrent
// provenance events into large groups and sustains at least 2× the
// unbatched throughput, and the per-stage breakdown shifts away from
// provenance. With a single worker there is nothing to coalesce — every
// group is a singleton committed the moment it arrives, so the batched
// arm must stay within 10% of the unbatched one (no timer to pay).
func E17GroupCommit() (*Result, error) {
	const uploads = 120 + e17Warmup
	const rounds = 3

	// The ledger is pinned to RSA-PSS endorsement: E17's claim is about
	// amortizing an expensive per-transaction endorsement, and its >= 2x
	// bar was calibrated against RSA signing cost. Under the Ed25519
	// runtime default endorsement is so cheap that batching has nothing
	// to amortize (E22 measures exactly that shift).
	const scheme = hckrypto.SchemeRSAPSS

	// Pinned arms ride on a ratio, so each is the median of 3 interleaved
	// rounds; the 4-worker arms are informational, one measurement each.
	un1, ba1, err := e17Pair(1, uploads, rounds, scheme)
	if err != nil {
		return nil, err
	}
	un4, ba4, err := e17Pair(4, uploads, 1, scheme)
	if err != nil {
		return nil, err
	}
	un16, ba16, err := e17Pair(16, uploads, rounds, scheme)
	if err != nil {
		return nil, err
	}

	ratio, ratio1 := 0.0, 0.0
	if un16.tps > 0 {
		ratio = ba16.tps / un16.tps
	}
	if un1.tps > 0 {
		ratio1 = ba1.tps / un1.tps
	}
	rows := []Row{
		{"unbatched @ 1 worker (median of 3)", un1.tps, "uploads/s"},
		{"batched @ 1 worker (median of 3)", ba1.tps, "uploads/s"},
		{"batched/unbatched @ 1 worker", ratio1, "x"},
		{"unbatched @ 4 workers", un4.tps, "uploads/s"},
		{"batched @ 4 workers", ba4.tps, "uploads/s"},
		{"unbatched @ 16 workers (median of 3)", un16.tps, "uploads/s"},
		{"batched @ 16 workers (median of 3)", ba16.tps, "uploads/s"},
		{"speedup @ 16 workers (batched/unbatched)", ratio, "x"},
		{"mean group size @ 16 workers", ba16.meanBatch, "tx"},
		{"provenance stage mean @ 16 workers, unbatched", un16.provMean, "ms"},
		{"provenance stage mean @ 16 workers, batched", ba16.provMean, "ms"},
		{"provenance share @ 16 workers, unbatched", un16.provShare, "%"},
		{"provenance share @ 16 workers, batched", ba16.provShare, "%"},
	}

	holds := ratio >= 2 && ba16.meanBatch > 1 && ba16.provMean < un16.provMean &&
		ratio1 >= 0.9
	detail := fmt.Sprintf(
		"group commit sustains %.2fx unbatched throughput at 16 workers (mean group %.1f tx); provenance stage mean %.1fms -> %.1fms; batched/unbatched at 1 worker %.2fx",
		ratio, ba16.meanBatch, un16.provMean, ba16.provMean, ratio1)
	return &Result{
		ID:    "E17",
		Title: fmt.Sprintf("group-commit provenance batching, %d uploads per arm", uploads),
		PaperClaim: "per-record chain writes serialize ingestion behind endorsement and ordering (§IV, Fig 6); " +
			"decoupling record flow from chain writes via group commit sustains concurrent ingest at scale",
		Rows:  rows,
		Shape: verdict(holds, detail),
	}, nil
}
