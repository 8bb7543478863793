// Package ingest implements the asynchronous Data Ingestion and Export
// service of §II-B. Upload is deliberately asynchronous ("data ingestion
// is a slow process and is thus designed as an asynchronous communication
// process"): the client-encrypted bundle lands in a secure staging area,
// a message is left on the platform's internal bus, and the caller gets a
// status URL. Background workers then run the §II-B/§IV-B1 sequence:
//
//	decrypt (client shared key from the KMS) → FHIR validation →
//	malware filtration → consent check → de-identification →
//	Data Lake storage under a fresh reference-id → identity-map bind →
//	provenance-ledger record
//
// Failures at any step mark the status URL and, for malware, report to
// the malware network. The Export service provides the two §II-B modes:
// anonymized export (gated by the anonymization verification service)
// and full re-identified export for CROs.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/resilience"
	"healthcloud/internal/scan"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// State is the ingestion status of one upload.
type State string

// Upload lifecycle states exposed at the status URL.
const (
	StateReceived      State = "received"
	StateDecrypting    State = "decrypting"
	StateValidating    State = "validating"
	StateScanning      State = "scanning"
	StateConsent       State = "consent-check"
	StateDeidentifying State = "de-identifying"
	StateStored        State = "stored"
	StateFailed        State = "failed"
	// StateDeadLettered marks an upload whose transient failures
	// exhausted the bus's delivery attempts; the message is parked on
	// the ingest DLQ and the reason is surfaced at the status URL. No
	// upload is ever silently lost: every terminal state is stored,
	// failed, or dead-lettered.
	StateDeadLettered State = "dead-lettered"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateStored || s == StateFailed || s == StateDeadLettered
}

// Status is what the status URL returns.
type Status struct {
	UploadID string `json:"upload_id"`
	State    State  `json:"state"`
	RefID    string `json:"ref_id,omitempty"`
	Error    string `json:"error,omitempty"`
	// Attempts counts processing deliveries (1 = no retries).
	Attempts int `json:"attempts,omitempty"`
	// TraceID links the upload to its distributed trace
	// (GET /traces/{id}); empty when telemetry is disabled.
	TraceID string `json:"trace_id,omitempty"`
	// ReceivedAt/DoneAt bracket the upload's end-to-end residence time
	// (accept to terminal state). In-process consumers (the load harness,
	// experiment E24) read them; they are not part of the HTTP status
	// body, which stays byte-identical.
	ReceivedAt time.Time `json:"-"`
	DoneAt     time.Time `json:"-"`
}

// Errors returned by this package.
var (
	ErrUnknownClient = errors.New("ingest: client not registered")
	ErrUnknownUpload = errors.New("ingest: unknown upload")
	ErrNoPatient     = errors.New("ingest: bundle contains no patient")
	ErrExportDenied  = errors.New("ingest: export not permitted")
)

// Ledger is the slice of the provenance blockchain the pipeline needs.
// The provenance span's context is handed down so endorsement, ordering
// and commit-wait appear as children of the ingest pipeline's trace.
type Ledger interface {
	SubmitCtx(tx blockchain.Transaction, timeout time.Duration, parent telemetry.SpanContext) error
}

// LedgerFlusher is implemented by group-commit ledgers (the blockchain
// Batcher): Flush synchronously commits everything queued and releases
// the waiting workers. Close detects it to guarantee no enqueued
// provenance event is dropped or left un-acked at shutdown.
type LedgerFlusher interface {
	Flush()
}

// Pipeline is the ingestion/export service. Construct with New, then
// Start workers; Close stops them.
type Pipeline struct {
	tenant   string
	kms      *hckrypto.KMS
	staging  *store.Staging
	lake     store.Lake
	idmap    *store.IdentityMap
	msgBus   *bus.Bus
	scanner  *scan.Scanner
	consents *consent.Service
	verifier *anonymize.VerificationService
	ledger   Ledger // nil disables provenance recording
	log      *audit.Log
	tracer   *telemetry.Tracer // nil disables tracing
	met      *ingestMetrics    // nil disables metrics

	mu         sync.RWMutex
	clientKeys map[string]hckrypto.SymmetricKey
	statuses   map[string]*Status
	// progress remembers which side effects of a retried upload already
	// happened (lake refs), so redelivery after a transient failure is
	// idempotent: storage is not duplicated, only the failed tail reruns.
	progress map[string]*uploadProgress
	// notify is a broadcast generation channel: closed and replaced on
	// every status change so waiters wake on events instead of polling.
	notify chan struct{}

	retries      atomic.Uint64 // transient redeliveries requested via Nack
	deadLettered atomic.Uint64 // uploads parked on the DLQ
	completed    atomic.Uint64 // uploads reaching any terminal state

	sub    *bus.Subscription
	dlqSub *bus.Subscription
	wg     sync.WaitGroup
	stopCh chan struct{}
}

// uploadProgress tracks completed storage steps across retries.
type uploadProgress struct {
	refID   string
	deidRef string
}

// Deps bundles the pipeline's collaborators.
type Deps struct {
	Tenant   string
	KMS      *hckrypto.KMS
	Lake     store.Lake
	IDMap    *store.IdentityMap
	Bus      *bus.Bus
	Scanner  *scan.Scanner
	Consents *consent.Service
	Verifier *anonymize.VerificationService
	Ledger   Ledger // optional
	Log      *audit.Log
	// Telemetry is optional; nil runs the pipeline unobserved at zero
	// cost beyond nil checks (same contract as faultinject).
	Telemetry *telemetry.Telemetry
}

// stageNames are the instrumented pipeline stages, in execution order.
var stageNames = []string{
	"decrypt", "validate", "scan", "consent", "deidentify",
	"store", "store-deid", "provenance",
}

// ingestMetrics caches the pipeline's metric handles so the hot path
// pays only atomic increments. A nil *ingestMetrics disables all of it.
type ingestMetrics struct {
	uploads, stored, failed, dead, retried *telemetry.Counter
	pipeline                               *telemetry.Histogram
	stages                                 map[string]stageHandle
}

// stageHandle pairs a stage's histogram with its precomputed span name,
// so the per-stage path does one map lookup and no string building.
type stageHandle struct {
	span string
	hist *telemetry.Histogram
}

func newIngestMetrics(reg *telemetry.Registry) *ingestMetrics {
	if reg == nil {
		return nil
	}
	m := &ingestMetrics{
		uploads:  reg.Counter("ingest_uploads_total"),
		stored:   reg.Counter("ingest_stored_total"),
		failed:   reg.Counter("ingest_failed_total"),
		dead:     reg.Counter("ingest_dead_lettered_total"),
		retried:  reg.Counter("ingest_retries_total"),
		pipeline: reg.Histogram("ingest_process_seconds"),
		stages:   make(map[string]stageHandle, len(stageNames)),
	}
	for _, s := range stageNames {
		m.stages[s] = stageHandle{
			span: "ingest." + s,
			hist: reg.Histogram(fmt.Sprintf("ingest_stage_seconds{stage=%q}", s)),
		}
	}
	return m
}

const ingestTopic = "ingest"

// New wires a pipeline. It subscribes to the ingest topic; call Start to
// launch workers.
func New(d Deps) (*Pipeline, error) {
	switch {
	case d.KMS == nil, d.Lake == nil, d.IDMap == nil, d.Bus == nil,
		d.Scanner == nil, d.Consents == nil, d.Verifier == nil, d.Log == nil:
		return nil, errors.New("ingest: missing dependency")
	}
	sub, err := d.Bus.Subscribe(ingestTopic, "ingest-workers")
	if err != nil {
		return nil, fmt.Errorf("ingest: subscribing: %w", err)
	}
	dlqSub, err := d.Bus.Subscribe(bus.DLQTopic(ingestTopic), "ingest-dlq")
	if err != nil {
		return nil, fmt.Errorf("ingest: subscribing to DLQ: %w", err)
	}
	return &Pipeline{
		tenant: d.Tenant, kms: d.KMS, staging: store.NewStaging(),
		lake: d.Lake, idmap: d.IDMap, msgBus: d.Bus, scanner: d.Scanner,
		consents: d.Consents, verifier: d.Verifier, ledger: d.Ledger, log: d.Log,
		tracer: d.Telemetry.Spans(), met: newIngestMetrics(d.Telemetry.Registry()),
		clientKeys: make(map[string]hckrypto.SymmetricKey),
		statuses:   make(map[string]*Status),
		progress:   make(map[string]*uploadProgress),
		notify:     make(chan struct{}),
		sub:        sub,
		dlqSub:     dlqSub,
		stopCh:     make(chan struct{}),
	}, nil
}

// Staging exposes the staging area so platform wiring can attach fault
// injection to it.
func (p *Pipeline) Staging() *store.Staging { return p.staging }

// RegisterClient issues a client its shared upload key ("encrypted data,
// using a client's public certificate issued by the platform ... the
// client's private key (generated by the platform at the time of
// registration and stored in a key management system)"). Following
// §IV-B1 we use a shared symmetric key rather than public-key bulk
// encryption.
func (p *Pipeline) RegisterClient(clientID string) (hckrypto.SymmetricKey, error) {
	key, err := hckrypto.NewSymmetricKey()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.clientKeys[clientID] = key
	p.mu.Unlock()
	p.log.Record(audit.Event{Level: audit.LevelInfo, Service: "ingest",
		Action: "register-client", Actor: clientID})
	return append(hckrypto.SymmetricKey(nil), key...), nil
}

// uploadMsg is the bus message body.
type uploadMsg struct {
	UploadID string `json:"upload_id"`
	ClientID string `json:"client_id"`
	Group    string `json:"group"`
}

// Upload accepts a client-encrypted FHIR bundle destined for a study
// group and returns the upload ID whose status can be polled.
func (p *Pipeline) Upload(clientID, group string, encrypted []byte) (string, error) {
	p.mu.RLock()
	_, known := p.clientKeys[clientID]
	p.mu.RUnlock()
	if !known {
		return "", fmt.Errorf("%w: %q", ErrUnknownClient, clientID)
	}
	sp := p.tracer.StartRoot("ingest.upload")
	sc := sp.Context()
	sp.SetAttr("client", clientID)
	sp.SetAttr("group", group)
	if p.met != nil {
		p.met.uploads.Inc()
	}
	id, err := p.staging.Put(encrypted)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		p.tracer.FinishTrace(sc.TraceID)
		return "", fmt.Errorf("ingest: staging: %w", err)
	}
	sp.SetAttr("upload_id", id)
	p.mu.Lock()
	p.statuses[id] = &Status{UploadID: id, State: StateReceived,
		TraceID: sc.TraceID.String(), ReceivedAt: time.Now()}
	p.notifyLocked()
	p.mu.Unlock()
	body, err := json.Marshal(uploadMsg{UploadID: id, ClientID: clientID, Group: group})
	if err != nil {
		sp.End()
		p.tracer.FinishTrace(sc.TraceID)
		return "", fmt.Errorf("ingest: encoding message: %w", err)
	}
	// The publish carries the upload span's context so the bus hop and
	// the worker's processing spans join this trace. The trace itself
	// finishes at the worker's ack (or dead-letter), not here.
	if _, err := p.msgBus.PublishCtx(ingestTopic, body, sc); err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		p.tracer.FinishTrace(sc.TraceID)
		return "", fmt.Errorf("ingest: publishing: %w", err)
	}
	sp.End()
	return id, nil
}

// Status returns the state of an upload.
func (p *Pipeline) Status(uploadID string) (Status, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.statuses[uploadID]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownUpload, uploadID)
	}
	return *st, nil
}

// WaitForUpload blocks until the upload reaches a terminal state. It is
// event-driven: waiters sleep on a broadcast channel the pipeline closes
// on every status change, not on a poll timer.
func (p *Pipeline) WaitForUpload(uploadID string, timeout time.Duration) (Status, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Capture the generation channel BEFORE reading the status so a
		// change between the read and the wait still wakes us.
		p.mu.RLock()
		ch := p.notify
		st, ok := p.statuses[uploadID]
		var snap Status
		if ok {
			snap = *st
		}
		p.mu.RUnlock()
		if !ok {
			return Status{}, fmt.Errorf("%w: %q", ErrUnknownUpload, uploadID)
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return snap, fmt.Errorf("ingest: upload %s still %s after %v", uploadID, snap.State, timeout)
		}
	}
}

// Retries reports how many transient redeliveries the workers requested.
func (p *Pipeline) Retries() uint64 { return p.retries.Load() }

// DeadLettered reports how many uploads were parked on the DLQ.
func (p *Pipeline) DeadLettered() uint64 { return p.deadLettered.Load() }

// Completed reports how many uploads reached a terminal state (stored,
// failed, or dead-lettered). It is the monotonic completion counter the
// admission layer's drain estimator differentiates into a service rate.
func (p *Pipeline) Completed() uint64 { return p.completed.Load() }

// QueueDepth reports uploads accepted but not yet picked up by a worker
// — the backlog a health prober watches for ingest congestion.
func (p *Pipeline) QueueDepth() int { return p.sub.Depth() }

// DLQBacklog reports dead-lettered messages still awaiting the DLQ
// consumer (distinct from DeadLettered, which is the lifetime total).
func (p *Pipeline) DLQBacklog() int { return p.dlqSub.Depth() }

// Statuses snapshots every upload status (chaos-harness support).
func (p *Pipeline) Statuses() []Status {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Status, 0, len(p.statuses))
	for _, st := range p.statuses {
		out = append(out, *st)
	}
	return out
}

// Start launches n background ingestion workers plus the DLQ consumer
// that surfaces dead-lettered uploads at the status URL.
func (p *Pipeline) Start(n int) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.dlqWorker()
}

// Close stops the workers (the bus subscription keeps queued messages for
// a later pipeline generation; the paper's ingestion is durable). When
// the ledger is a group-commit batcher, Close keeps flushing it until
// the last worker exits: a worker blocked in the provenance stage may be
// queued behind an in-flight commit that takes longer than any patience,
// so without the flush loop its enqueued event would be stranded
// un-acked.
func (p *Pipeline) Close() {
	select {
	case <-p.stopCh:
	default:
		close(p.stopCh)
	}
	if f, ok := p.ledger.(LedgerFlusher); ok {
		done := make(chan struct{})
		go func() {
			p.wg.Wait()
			close(done)
		}()
		for {
			f.Flush()
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
	p.wg.Wait()
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		m, err := p.sub.Receive(50 * time.Millisecond)
		if err != nil {
			continue // timeout or closed; loop checks stopCh
		}
		var msg uploadMsg
		if err := json.Unmarshal(m.Payload, &msg); err != nil {
			p.sub.Ack(m.ID) // malformed: poison message, drop
			p.tracer.FinishTrace(m.Trace.TraceID)
			continue
		}
		p.noteAttempt(msg.UploadID, m.Attempt)
		err = p.process(msg, m.Trace)
		switch {
		case err == nil:
			p.sub.Ack(m.ID)
			p.tracer.FinishTrace(m.Trace.TraceID)
		case resilience.IsPermanent(err):
			// Data problems (bad crypto, invalid FHIR, malware, missing
			// consent) never heal on retry: mark failed and consume.
			p.fail(msg.UploadID, err.Error())
			p.sub.Ack(m.ID)
			p.tracer.FinishTrace(m.Trace.TraceID)
		default:
			// Infrastructure problems (store, ledger) are transient:
			// hand the message back for redelivery. Once the bus's
			// max-attempts cap is hit it dead-letters instead, and the
			// DLQ consumer surfaces the reason at the status URL.
			p.retries.Add(1)
			if p.met != nil {
				p.met.retried.Inc()
			}
			p.log.Record(audit.Event{Level: audit.LevelWarn, Service: "ingest",
				Action: "ingest-retry", Resource: msg.UploadID, Detail: err.Error()})
			p.sub.Nack(m.ID, err.Error())
		}
	}
}

// dlqWorker consumes the ingest dead-letter topic and marks the parked
// uploads so the invariant holds: every upload terminates as stored,
// failed, or dead-lettered with a reason at its status URL.
func (p *Pipeline) dlqWorker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		m, err := p.dlqSub.Receive(50 * time.Millisecond)
		if err != nil {
			continue
		}
		var msg uploadMsg
		if err := json.Unmarshal(m.Payload, &msg); err == nil {
			p.markDeadLettered(msg.UploadID, m.Reason)
		}
		p.dlqSub.Ack(m.ID)
		// Dead-lettering ends the upload's lifecycle — and its trace.
		p.tracer.FinishTrace(m.Trace.TraceID)
	}
}

// notifyLocked wakes every waiter. Callers must hold p.mu for writing.
// A terminal transition records everything a woken waiter may look for
// — the audit event, the completion count, the staging removal — before
// it takes the lock and notifies, never after.
func (p *Pipeline) notifyLocked() {
	close(p.notify)
	p.notify = make(chan struct{})
}

// setState updates a status.
func (p *Pipeline) setState(uploadID string, s State) {
	p.mu.Lock()
	if st, ok := p.statuses[uploadID]; ok {
		st.State = s
	}
	p.notifyLocked()
	p.mu.Unlock()
}

// noteAttempt records the bus delivery count on the status.
func (p *Pipeline) noteAttempt(uploadID string, attempt int) {
	p.mu.Lock()
	if st, ok := p.statuses[uploadID]; ok && attempt > st.Attempts {
		st.Attempts = attempt
	}
	p.mu.Unlock()
}

func (p *Pipeline) fail(uploadID, reason string) {
	if p.met != nil {
		p.met.failed.Inc()
	}
	p.completed.Add(1)
	p.staging.Remove(uploadID)
	p.log.Record(audit.Event{Level: audit.LevelWarn, Service: "ingest",
		Action: "ingest-failed", Resource: uploadID, Detail: reason})
	p.mu.Lock()
	if st, ok := p.statuses[uploadID]; ok {
		st.State = StateFailed
		st.Error = reason
		st.DoneAt = time.Now()
	}
	delete(p.progress, uploadID)
	p.notifyLocked()
	p.mu.Unlock()
}

// markDeadLettered parks an upload that exhausted its retries.
func (p *Pipeline) markDeadLettered(uploadID, reason string) {
	if reason == "" {
		reason = "retries exhausted"
	}
	p.staging.Remove(uploadID)
	p.log.Record(audit.Event{Level: audit.LevelError, Service: "ingest",
		Action: "ingest-dead-lettered", Resource: uploadID, Detail: reason})
	p.mu.Lock()
	if st, ok := p.statuses[uploadID]; ok && !st.State.Terminal() {
		st.State = StateDeadLettered
		st.Error = reason
		st.DoneAt = time.Now()
		p.deadLettered.Add(1)
		p.completed.Add(1)
		if p.met != nil {
			p.met.dead.Inc()
		}
	}
	delete(p.progress, uploadID)
	p.notifyLocked()
	p.mu.Unlock()
}

// timeStage runs one pipeline stage under a span (child of parent) and
// the stage's latency histogram. The stage body receives the stage
// span's context so deeper work (the ledger submit) can nest under it.
// With telemetry disabled every instrument call no-ops on a nil check.
func (p *Pipeline) timeStage(parent telemetry.SpanContext, name string, f func(telemetry.SpanContext) error) error {
	m := p.met
	if m == nil { // telemetry off: zero cost beyond this check
		return f(telemetry.SpanContext{})
	}
	sh := m.stages[name]
	start := time.Now()
	sp := p.tracer.StartSpanAt(sh.span, parent, start)
	err := f(sp.Context())
	end := time.Now()
	sh.hist.ObserveTrace(end.Sub(start), sp.Context().TraceID)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.EndAt(end)
	return err
}

// process runs the full background ingestion flow for one upload. It
// returns nil on success, a resilience.Permanent error for data problems
// that cannot heal on retry, and a plain (transient) error for
// infrastructure failures the worker should Nack for redelivery. The
// trace context arrives via the bus message, so the processing spans
// hang off the upload's trace across the async hop.
func (p *Pipeline) process(msg uploadMsg, tctx telemetry.SpanContext) error {
	m := p.met
	if m == nil {
		return p.run(msg, telemetry.SpanContext{})
	}
	start := time.Now()
	sp := p.tracer.StartSpanAt("ingest.process", tctx, start)
	sp.SetAttr("upload_id", msg.UploadID)
	err := p.run(msg, sp.Context())
	end := time.Now()
	m.pipeline.ObserveTrace(end.Sub(start), sp.Context().TraceID)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.EndAt(end)
	return err
}

// run is the stage sequence behind process.
func (p *Pipeline) run(msg uploadMsg, pctx telemetry.SpanContext) error {
	id := msg.UploadID
	// Duplicate redelivery (e.g. after a visibility timeout) of an
	// upload that already terminated is a no-op.
	if st, err := p.Status(id); err == nil && st.State.Terminal() {
		return nil
	}
	// 1. Read the encrypted bundle from staging. The bytes stay staged
	// until a terminal state so transient failures can be retried; a
	// missing entry here is unrecoverable.
	encrypted, err := p.staging.Get(id)
	if err != nil {
		return resilience.Permanent(fmt.Errorf("staging: %w", err))
	}
	// 2. Decrypt with the client's shared key.
	p.setState(id, StateDecrypting)
	p.mu.RLock()
	key := p.clientKeys[msg.ClientID]
	p.mu.RUnlock()
	if key == nil {
		return resilience.Permanent(errors.New("unknown client key"))
	}
	var plaintext []byte
	if err := p.timeStage(pctx, "decrypt", func(telemetry.SpanContext) error {
		var derr error
		plaintext, derr = hckrypto.DecryptGCM(key, encrypted, []byte(msg.ClientID))
		if derr != nil {
			return resilience.Permanent(errors.New("decrypt: integrity or key failure"))
		}
		return nil
	}); err != nil {
		return err
	}
	// 3. Validate the bundle.
	p.setState(id, StateValidating)
	var bundle *fhir.Bundle
	if err := p.timeStage(pctx, "validate", func(telemetry.SpanContext) error {
		var verr error
		bundle, verr = fhir.ParseBundle(plaintext)
		if verr != nil {
			return resilience.Permanent(fmt.Errorf("validate: %w", verr))
		}
		return nil
	}); err != nil {
		return err
	}
	// 4. Malware filtration.
	p.setState(id, StateScanning)
	if err := p.timeStage(pctx, "scan", func(telemetry.SpanContext) error {
		if findings, serr := p.scanner.Scan(msg.ClientID, plaintext); serr != nil {
			p.recordLedger(blockchain.EventMalwareReport, id, nil, map[string]string{
				"sender": msg.ClientID, "findings": strconv.Itoa(len(findings)),
			})
			return resilience.Permanent(fmt.Errorf("malware: %w", serr))
		}
		return nil
	}); err != nil {
		return err
	}
	// 5. Find the patient and check consent for the target group.
	p.setState(id, StateConsent)
	patient, err := patientOf(bundle)
	if err != nil {
		return resilience.Permanent(err)
	}
	if err := p.timeStage(pctx, "consent", func(telemetry.SpanContext) error {
		if cerr := p.consents.Check(patient.ID, msg.Group, consent.PurposeResearch); cerr != nil {
			return resilience.Permanent(fmt.Errorf("consent: %w", cerr))
		}
		return nil
	}); err != nil {
		return err
	}
	// 6. De-identify and store. The original (identified) record and the
	// de-identified copy are both encrypted at rest under per-record keys
	// (§IV-B1: "Both the original and anonymized versions of data objects
	// are encrypted and stored"). Lake writes that already succeeded on a
	// previous attempt are remembered in the progress map and skipped, so
	// retries are idempotent.
	p.setState(id, StateDeidentifying)
	var deidBundle *fhir.Bundle
	if err := p.timeStage(pctx, "deidentify", func(telemetry.SpanContext) error {
		deidPatient := anonymize.DeidentifyPatient(patient, nil)
		var derr error
		deidBundle, derr = deidentifiedBundle(bundle, deidPatient)
		if derr != nil {
			return resilience.Permanent(fmt.Errorf("deidentify: %w", derr))
		}
		return nil
	}); err != nil {
		return err
	}
	prog := p.progressFor(id)
	if prog.refID == "" {
		if err := p.timeStage(pctx, "store", func(telemetry.SpanContext) error {
			refID, serr := p.lake.Put(patient.ID, plaintext, store.Meta{
				ContentType: "fhir+json;identified", Tenant: p.tenant, Group: msg.Group,
			})
			if serr != nil {
				return fmt.Errorf("store: %w", serr) // transient
			}
			prog.refID = refID
			p.saveProgress(id, prog)
			return nil
		}); err != nil {
			return err
		}
	}
	if prog.deidRef == "" {
		deidJSON, err := fhir.Marshal(deidBundle)
		if err != nil {
			return resilience.Permanent(fmt.Errorf("deid-marshal: %w", err))
		}
		if err := p.timeStage(pctx, "store-deid", func(telemetry.SpanContext) error {
			deidRef, serr := p.lake.Put(patient.ID, deidJSON, store.Meta{
				ContentType: "fhir+json;deidentified", Tenant: p.tenant, Group: msg.Group,
				Tags: map[string]string{"identified_ref": prog.refID},
			})
			if serr != nil {
				return fmt.Errorf("store-deid: %w", serr) // transient
			}
			prog.deidRef = deidRef
			p.saveProgress(id, prog)
			return nil
		}); err != nil {
			return err
		}
	}
	p.idmap.Bind(prog.refID, patient.ID) // idempotent rebind on retry
	// 7. Provenance. A failed ledger submit is transient: the receipt
	// must eventually land, so the whole message is redelivered (the
	// storage steps above are skipped via the progress map).
	salt := []byte(prog.refID)
	tx := blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest-service",
		prog.refID, hckrypto.SaltedHash(salt, plaintext), map[string]string{
			"group": msg.Group, "deid_ref": prog.deidRef,
		})
	if p.ledger != nil {
		if err := p.timeStage(pctx, "provenance", func(sc telemetry.SpanContext) error {
			if lerr := p.ledger.SubmitCtx(tx, 10*time.Second, sc); lerr != nil {
				return fmt.Errorf("ledger: %w", lerr) // transient
			}
			return nil
		}); err != nil {
			return err
		}
	}
	p.staging.Remove(id)
	p.completed.Add(1)
	if p.met != nil {
		p.met.stored.Inc()
	}
	p.log.Record(audit.Event{Level: audit.LevelInfo, Service: "ingest",
		Action: "stored", Resource: prog.refID})
	p.mu.Lock()
	if st, ok := p.statuses[id]; ok {
		st.State = StateStored
		st.RefID = prog.refID
		st.DoneAt = time.Now()
	}
	delete(p.progress, id)
	p.notifyLocked()
	p.mu.Unlock()
	return nil
}

// progressFor returns a copy of the retry progress for an upload.
func (p *Pipeline) progressFor(id string) uploadProgress {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if prog, ok := p.progress[id]; ok {
		return *prog
	}
	return uploadProgress{}
}

// saveProgress persists a completed storage step across retries.
func (p *Pipeline) saveProgress(id string, prog uploadProgress) {
	p.mu.Lock()
	cp := prog
	p.progress[id] = &cp
	p.mu.Unlock()
}

// recordLedger is the best-effort submit used by export and malware
// reporting, where the primary operation should not fail on a ledger
// hiccup; failures are audit-logged only.
func (p *Pipeline) recordLedger(typ blockchain.EventType, handle string, hash []byte, meta map[string]string) {
	if p.ledger == nil {
		return
	}
	tx := blockchain.NewTransaction(typ, "ingest-service", handle, hash, meta)
	if err := p.ledger.SubmitCtx(tx, 10*time.Second, telemetry.SpanContext{}); err != nil {
		p.log.Record(audit.Event{Level: audit.LevelError, Service: "ingest",
			Action: "ledger-submit", Resource: handle, Err: err.Error()})
	}
}

// patientOf extracts the single Patient resource of a bundle.
func patientOf(b *fhir.Bundle) (*fhir.Patient, error) {
	resources, err := b.Resources()
	if err != nil {
		return nil, err
	}
	for _, r := range resources {
		if pt, ok := r.(*fhir.Patient); ok {
			return pt, nil
		}
	}
	return nil, ErrNoPatient
}

// deidentifiedBundle rebuilds the bundle with the de-identified patient
// substituted and all other resources retained.
func deidentifiedBundle(b *fhir.Bundle, deid *fhir.Patient) (*fhir.Bundle, error) {
	resources, err := b.Resources()
	if err != nil {
		return nil, err
	}
	out := fhir.NewBundle(b.Type)
	for _, r := range resources {
		if _, ok := r.(*fhir.Patient); ok {
			if err := out.AddResource(deid); err != nil {
				return nil, err
			}
			continue
		}
		if err := out.AddResource(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}
