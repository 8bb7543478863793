package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"healthcloud/internal/core"
	"healthcloud/internal/ingest"
)

// TestMain dispatches to the E20 crash-test child when this test
// binary is re-executed with E20ChildEnv set: the child runs a durable
// platform and ingests until the parent SIGKILLs it. E20Child exits
// the process, so m.Run never executes in that mode.
func TestMain(m *testing.M) {
	if os.Getenv(E20ChildEnv) != "" {
		E20Child()
	}
	os.Exit(m.Run())
}

// TestAllShapesHold runs the full reproduction harness and requires every
// experiment to report its paper-predicted shape. This is the repo's
// single strongest statement: each quantitative claim of the paper holds
// on this substrate.
func TestAllShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness skipped in -short mode")
	}
	results, err := All()
	if err != nil {
		t.Fatalf("harness error after %d experiments: %v", len(results), err)
	}
	if len(results) != 15 {
		t.Fatalf("ran %d experiments, want 15", len(results))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.Shape, "HOLDS") {
			t.Errorf("%s: %s", r.ID, r.Shape)
		}
		if len(r.Rows) == 0 || r.PaperClaim == "" {
			t.Errorf("%s: incomplete result %+v", r.ID, r)
		}
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "EX", Title: "t", PaperClaim: "c",
		Rows: []Row{{"a", 1.5, "x"}}, Shape: "HOLDS — demo"}
	s := r.String()
	for _, want := range []string{"EX", "claim: c", "1.500", "HOLDS"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = string(rune('a' + i%26))
	}
	draws := zipfKeys(keys, 10_000, 1)
	counts := map[string]int{}
	for _, k := range draws {
		counts[k]++
	}
	// The head key must dominate a Zipf draw.
	if counts[keys[0]] < 1000 {
		t.Errorf("head key drawn only %d times — not Zipf-skewed", counts[keys[0]])
	}
}

func TestVerdict(t *testing.T) {
	if got := verdict(true, "yes"); got != "HOLDS — yes" {
		t.Errorf("verdict(true) = %q", got)
	}
	if got := verdict(false, "no"); got != "DOES NOT HOLD — no" {
		t.Errorf("verdict(false) = %q", got)
	}
}

func TestAccountedSleeper(t *testing.T) {
	sleep, total := accountedSleeper()
	sleep(100)
	sleep(200)
	if *total != 300 {
		t.Errorf("accounted %v", *total)
	}
}

// TestAblationShapesHold runs the design-choice ablations A1–A3.
func TestAblationShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short mode")
	}
	results, err := Ablations()
	if err != nil {
		t.Fatalf("ablations error after %d: %v", len(results), err)
	}
	if len(results) != 3 {
		t.Fatalf("ran %d ablations, want 3", len(results))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.Shape, "HOLDS") {
			t.Errorf("%s: %s", r.ID, r.Shape)
		}
	}
}

// TestE15ChaosInvariant pins the resilience acceptance criteria: under
// 20% store / 10% ledger fault injection every upload reaches a terminal
// state and retries recover at least 90% of transiently-failed uploads.
func TestE15ChaosInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	r, err := E15ChaosIngestion()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if rows["lost (no terminal state)"] != 0 {
		t.Errorf("lost uploads = %v, want 0", rows["lost (no terminal state)"])
	}
	if rows["uploads that hit a transient fault"] == 0 {
		t.Error("chaos was a no-op: no upload hit an injected fault")
	}
	if rows["recovery ratio"] < 90 {
		t.Errorf("recovery ratio = %v%%, want >= 90%%", rows["recovery ratio"])
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE22SignerAgility pins the crypto-agility acceptance criteria: the
// Ed25519 runtime default endorses at least 5x faster than the RSA-PSS
// compatibility scheme on a single peer (median of 3 interleaved
// rounds; ~35x in practice), and unbatched 16-worker ingest — where
// ordering and commit-wait dilute signature cost — still keeps a
// measurable gain. The companion zero-allocation guard for the Ed25519
// verify hot path lives in internal/hckrypto (TestEd25519VerifyZeroAlloc).
func TestE22SignerAgility(t *testing.T) {
	if testing.Short() {
		t.Skip("signer-agility benchmark skipped in -short mode")
	}
	r, err := E22SignerAgility()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["endorse speedup (ed25519/rsa-pss)"]; got < 5 {
		t.Errorf("ed25519/rsa-pss endorse speedup = %.1fx, want >= 5x", got)
	}
	if got := rows["ingest gain (ed25519/rsa-pss)"]; got <= 1.2 {
		t.Errorf("ingest gain = %.2fx, want > 1.2x (measured ~4x)", got)
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE17BatchedProvenance pins the group-commit acceptance criteria:
// batched provenance sustains at least 2x the unbatched ingest
// throughput at 16 workers, the batcher genuinely coalesces (mean group
// size > 1), and the per-upload provenance stage gets cheaper.
func TestE17BatchedProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("group-commit benchmark skipped in -short mode")
	}
	r, err := E17GroupCommit()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["speedup @ 16 workers (batched/unbatched)"]; got < 2 {
		t.Errorf("batched/unbatched speedup = %.2fx, want >= 2x", got)
	}
	if got := rows["mean group size @ 16 workers"]; got <= 1 {
		t.Errorf("mean group size = %.1f — batching never coalesced", got)
	}
	if rows["batched @ 16 workers (median of 3)"] <= rows["unbatched @ 16 workers (median of 3)"] {
		t.Error("batched throughput not above unbatched at 16 workers")
	}
	// No timer, so nothing to lose with nothing to coalesce: a lone
	// worker's singleton groups must cost what unbatched submits cost.
	if got := rows["batched/unbatched @ 1 worker"]; got < 0.9 {
		t.Errorf("batched/unbatched at 1 worker = %.2fx, want >= 0.9x", got)
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE16TelemetryOverhead pins the observability acceptance criteria:
// the instrumented pipeline costs < 5% CPU over the nil-telemetry
// baseline, and a single upload's trace carries every pipeline stage
// including the bus hop and ledger phases.
func TestE16TelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry benchmark skipped in -short mode")
	}
	r, err := E16TelemetryOverhead()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["telemetry self-overhead (cpu, median pair)"]; got >= 5 {
		t.Errorf("telemetry self-overhead = %.2f%%, want < 5%%", got)
	}
	if rows["provenance+ordering share of pipeline"] <= 0 {
		t.Error("provenance share not measured")
	}
	if rows["spans in one upload's trace"] < 15 {
		t.Errorf("trace has %v spans, want >= 15", rows["spans in one upload's trace"])
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE23TailSampling pins the tail-sampling acceptance criteria: with
// a 200-trace store under a 3000-upload run carrying a seeded 1%
// slow-ledger fault, the tail sampler retains >= 90% of the slow traces
// where a keep-newest (FIFO-equivalent) policy retains < 20%, the span
// lifecycle stays at 0 allocs/op, and self-overhead stays under the E16
// 5% CPU bound.
func TestE23TailSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("tail-sampling benchmark skipped in -short mode")
	}
	r, err := E23TailSampling()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["tail retention of slow traces"]; got < 90 {
		t.Errorf("tail retention = %.1f%%, want >= 90%%", got)
	}
	if got := rows["keep-newest (FIFO-equivalent) retention of slow traces"]; got >= 20 {
		t.Errorf("keep-newest retention = %.1f%%, want < 20%% (the failure mode tail sampling fixes)", got)
	}
	if got := rows["span lifecycle allocations"]; got != 0 {
		t.Errorf("span lifecycle = %v allocs/op, want 0", got)
	}
	if got := rows["tail-sampling self-overhead (cpu, median pair)"]; got >= 5 {
		t.Errorf("tail-sampling self-overhead = %.2f%%, want < 5%%", got)
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

func TestE18WatchdogDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog chaos experiment skipped in -short mode")
	}
	r, err := E18WatchdogDetection()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	for _, class := range []string{"store outage", "ledger latency", "kb outage"} {
		if got := rows[class+": ticks to detect"]; got < 1 || got >= 2 {
			t.Errorf("%s detected in %v ticks, want < 2", class, got)
		}
		if got := rows[class+": ticks to clear"]; got < 1 {
			t.Errorf("%s never cleared (ticks = %v)", class, got)
		}
	}
	if rows["alert-raised audit events"] < 3 || rows["alert-cleared audit events"] < 3 {
		t.Errorf("alert transitions not audited: raised %v cleared %v",
			rows["alert-raised audit events"], rows["alert-cleared audit events"])
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE19ShardedLake pins the sharded-lake acceptance criteria: ≥2×
// ingest throughput at 4 shards vs 1 (16 workers against serial
// storage nodes), and — with one of three shards dead at R=2 — zero
// lost and zero dead-lettered uploads, readiness degraded-then-
// recovered, the hint backlog drained, and every object's replicas
// byte-identical afterwards.
func TestE19ShardedLake(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded-lake experiment skipped in -short mode")
	}
	r, err := E19ShardedLake()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["throughput speedup (4 vs 1)"]; got < 2 {
		t.Errorf("4-shard speedup = %.2fx, want >= 2x", got)
	}
	if got := rows["lost"]; got != 0 {
		t.Errorf("lost uploads = %v, want 0", got)
	}
	if got := rows["dead-lettered"]; got != 0 {
		t.Errorf("dead-lettered uploads = %v, want 0", got)
	}
	if got := rows["stored"]; got != rows["uploads during outage run"] {
		t.Errorf("stored %v of %v uploads", got, rows["uploads during outage run"])
	}
	if got := rows["hints queued during outage"]; got == 0 {
		t.Error("no hints queued — the outage never exercised hinted handoff")
	}
	if got := rows["hint backlog after drain"]; got != 0 {
		t.Errorf("hint backlog after drain = %v, want 0", got)
	}
	if got := rows["divergent objects"]; got != 0 {
		t.Errorf("divergent objects = %v, want 0", got)
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE20CrashRecovery pins the durability acceptance criteria: a
// child process SIGKILLed mid-ingest — with an injected torn write
// already flushed to one shard's journal — must lose zero acknowledged
// uploads across restart, the torn tail must be truncated (not
// refused), replicas must re-converge byte-identically after the
// repair sweep, all ledger peers must replay one hash-verified chain,
// and group-commit fsync batching must at least halve the fsync count.
func TestE20CrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery experiment skipped in -short mode")
	}
	r, err := E20CrashRecovery()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["acked uploads missing after replay"]; got != 0 {
		t.Errorf("lost %v acked uploads, want 0", got)
	}
	if got := rows["acked after torn-write wedge"]; got < 1 {
		t.Error("no uploads acked after the wedge — the kill did not land mid-ingest")
	}
	if got := rows["torn-tail bytes truncated at reopen"]; got <= 0 {
		t.Errorf("torn-tail bytes truncated = %v, want > 0", got)
	}
	if got := rows["divergent objects"]; got != 0 {
		t.Errorf("divergent objects after repair = %v, want 0", got)
	}
	if got, n := rows["peers agreeing on replayed state hash"], 3.0; got != n {
		t.Errorf("peers agreeing on state hash = %v, want %v", got, n)
	}
	if g, s := rows["fsyncs issued, group-commit"], rows["fsyncs issued, fsync-per-append"]; g >= s {
		t.Errorf("group commit issued %v fsyncs vs %v — batching never coalesced", g, s)
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestCleanStopStartNoLoss is the graceful-shutdown regression: a
// platform that stops cleanly (Platform.Close drains intake, flushes
// the ledger, then syncs and closes the durable logs) must restart
// with every acknowledged upload present and the identical ledger
// state hash — and with nothing truncated, because a clean stop leaves
// no torn tail.
func TestCleanStopStartNoLoss(t *testing.T) {
	dir := t.TempDir()
	cfg, err := e20Config(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := p.Ingest.RegisterClient(e20Client)
	if err != nil {
		t.Fatal(err)
	}
	const uploads = 10
	refs := make([]string, 0, uploads)
	for i := 0; i < uploads; i++ {
		st, err := e20Upload(p, key, i)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != ingest.StateStored {
			t.Fatalf("upload %d ended %s: %s", i, st.State, st.Error)
		}
		refs = append(refs, st.RefID)
	}
	count := p.Lake.Count()
	peer, err := p.Provenance.Peer(p.Provenance.PeerIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	stateHash := peer.Ledger().StateHash()
	p.Close()

	p2, err := core.New(cfg)
	if err != nil {
		t.Fatalf("reopen after clean stop: %v", err)
	}
	defer p2.Close()
	for _, log := range p2.LakeLogs {
		if tb := log.ReplayInfo().TruncatedBytes; tb != 0 {
			t.Errorf("clean stop left %dB of torn tail", tb)
		}
	}
	if got := p2.Lake.Count(); got != count {
		t.Errorf("restart holds %d objects, want %d", got, count)
	}
	for _, ref := range refs {
		if _, err := p2.Lake.Meta(ref); err != nil {
			t.Errorf("acked upload %s missing after clean restart: %v", ref, err)
		}
	}
	peer2, err := p2.Provenance.Peer(p2.Provenance.PeerIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := peer2.Ledger().StateHash(); got != stateHash {
		t.Errorf("ledger state hash changed across clean restart:\n  before %s\n  after  %s",
			stateHash, got)
	}
	if _, divergent := p2.ShardLake.VerifyConvergence(); len(divergent) != 0 {
		t.Errorf("divergent objects after clean restart: %v", divergent)
	}
}

// TestE21MultiChannel pins the multi-channel provenance acceptance
// criteria: 4 channels sustain at least 1.8x the single-channel commit
// throughput under the serial-ordering device model, with zero
// transactions lost, every channel cutting blocks, and per-channel
// block-cut cadence reported.
func TestE21MultiChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-channel benchmark skipped in -short mode")
	}
	r, err := E21MultiChannel()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	if got := rows["speedup (4 vs 1 channels)"]; got < 1.8 {
		t.Errorf("4-channel speedup = %.2fx, want >= 1.8x", got)
	}
	if rows["throughput @ 2 channels (median of 3)"] <= rows["throughput @ 1 channel (median of 3)"] {
		t.Error("2-channel throughput not above single-channel")
	}
	for i := 0; i < 4; i++ {
		label := fmt.Sprintf("blocks cut @ 4 channels, ch-%d", i)
		if got, ok := rows[label]; !ok || got == 0 {
			t.Errorf("%s = %v — channel idle or cadence row missing", label, got)
		}
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}

// TestE24AdmissionControl pins the admission acceptance criteria: under
// open-loop load at 10x the measured knee the admission layer holds
// goodput at >= 80% of the knee while shedding with honest Retry-After
// hints, the backlog stays near the shed depth, and no request below
// the knee is ever refused. The unprotected arm must show the failure
// mode: a backlog several times the shed line.
func TestE24AdmissionControl(t *testing.T) {
	if testing.Short() {
		t.Skip("admission benchmark skipped in -short mode")
	}
	r, err := E24AdmissionControl()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	knee := rows["measured knee (admission off, drain rate)"]
	if knee < 100 {
		t.Fatalf("measured knee = %.0f/s — capacity model off or host overloaded", knee)
	}
	if got := rows["below knee: shed"]; got != 0 {
		t.Errorf("sheds below the knee = %.0f, want 0", got)
	}
	if got := rows["10x overload: goodput vs knee"]; got < 80 {
		t.Errorf("overload goodput = %.0f%% of knee, want >= 80%%", got)
	}
	if got := rows["10x overload: shed (503 + Retry-After)"]; got == 0 {
		t.Error("overload produced no sheds — open loop not overdriving the knee")
	}
	if got := rows["no admission: backlog at phase end"]; got < 5*rows["10x overload: backlog at phase end"] {
		t.Errorf("unprotected backlog %.0f not well above protected %.0f",
			got, rows["10x overload: backlog at phase end"])
	}
	if !strings.HasPrefix(r.Shape, "HOLDS") {
		t.Errorf("shape: %s", r.Shape)
	}
}
