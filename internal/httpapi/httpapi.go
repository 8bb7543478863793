// Package httpapi exposes the platform as HTTPS (REST) interfaces
// (§III-A: "We provide HTTPS (REST) interfaces to our system. Users
// access our system as Web services.") with the API-management behaviour
// of §II-B: "The API management system first authenticates the user
// requesting the APIs, and once successfully authenticated, it consults
// the Privacy Management system and allows API access accordingly."
//
// Authentication: clients log in with a federated identity token
// (internal/rbac.IdentityToken) and receive an opaque bearer session
// token. Every data route then runs authenticate → RBAC check → handler.
package httpapi

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"healthcloud/internal/admission"
	"healthcloud/internal/audit"
	"healthcloud/internal/consent"
	"healthcloud/internal/core"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/ingest"
	"healthcloud/internal/kb"
	"healthcloud/internal/monitor"
	"healthcloud/internal/rbac"
	"healthcloud/internal/resilience"
	"healthcloud/internal/services"
	"healthcloud/internal/telemetry"
)

// requestTimeout bounds each guarded request: handlers see a context
// that expires after it.
const requestTimeout = 10 * time.Second

// Server is the REST front end over a platform instance.
type Server struct {
	p   *core.Platform
	mux *http.ServeMux

	mu       sync.RWMutex
	sessions map[string]string // bearer token -> user id
}

// New builds the server and its routes.
func New(p *core.Platform) *Server {
	s := &Server{p: p, mux: http.NewServeMux(), sessions: make(map[string]string)}
	s.mux.HandleFunc("POST /api/v1/login", s.handleLogin)
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	// Admission classes per route: ingest-side writes are bulk (first to
	// shed under load), interactive reads are normal, and consent changes
	// are critical — a revocation must land even while bulk ingest is
	// being refused, or the platform keeps using data it no longer has
	// consent for. healthz/readyz/metrics are unguarded and never shed.
	s.mux.HandleFunc("POST /api/v1/clients", s.guard("ingest", rbac.ActionWrite, admission.ClassBulk, s.handleRegisterClient))
	s.mux.HandleFunc("POST /api/v1/uploads", s.guard("ingest", rbac.ActionWrite, admission.ClassBulk, s.handleUpload))
	s.mux.HandleFunc("GET /api/v1/uploads/{id}", s.guard("ingest", rbac.ActionWrite, admission.ClassNormal, s.handleUploadStatus))
	s.mux.HandleFunc("GET /api/v1/kb/{key}", s.guard("services", rbac.ActionRead, admission.ClassNormal, s.handleKB))
	s.mux.HandleFunc("GET /api/v1/models/{name}", s.guard("models", rbac.ActionRead, admission.ClassNormal, s.handleModel))
	s.mux.HandleFunc("GET /api/v1/exports/anonymized", s.guard("exports", rbac.ActionRead, admission.ClassNormal, s.handleExportAnonymized))
	s.mux.HandleFunc("GET /api/v1/audit", s.guard("logs", rbac.ActionRead, admission.ClassNormal, s.handleAudit))
	s.mux.HandleFunc("POST /api/v1/consents", s.guard("phi", rbac.ActionWrite, admission.ClassCritical, s.handleGrantConsent))
	s.mux.HandleFunc("DELETE /api/v1/consents", s.guard("phi", rbac.ActionWrite, admission.ClassCritical, s.handleRevokeConsent))
	s.mux.HandleFunc("GET /api/v1/services/{capability}", s.guard("services", rbac.ActionRead, admission.ClassNormal, s.handleServices))
	s.mux.HandleFunc("GET /api/v1/facts", s.guard("services", rbac.ActionRead, admission.ClassNormal, s.handleFacts))
	s.mux.HandleFunc("GET /api/v1/billing", s.guard("logs", rbac.ActionRead, admission.ClassNormal, s.handleBilling))
	// Observability endpoints (operational, like healthz): Prometheus
	// text exposition and per-trace span dumps. Both 404 when the
	// platform runs without telemetry.
	s.mux.Handle("GET /metrics", telemetry.MetricsHandler(p.Telemetry.Registry()))
	s.mux.Handle("GET /traces/{id}", telemetry.TraceHandler(p.Telemetry.Spans()))
	// Go 1.22 routing: the literal pattern wins over /traces/{id}.
	s.mux.Handle("GET /traces/summary", telemetry.TraceSummaryHandler(p.Telemetry.Spans()))
	// Self-monitoring endpoints: dependency-aware readiness (degraded vs
	// down with per-component detail), the operator status page, and the
	// metrics history ring. /metrics/history 404s when monitoring is
	// off; /readyz and /statusz fall back to an everything-ok view so
	// orchestrators probing a monitorless instance still get a 200.
	s.mux.Handle("GET /readyz", monitor.ReadyzHandler(p.Monitor.Prober()))
	s.mux.Handle("GET /statusz", monitor.StatuszHandler(p.Monitor.Prober(), s.evaluations))
	s.mux.Handle("GET /metrics/history", monitor.HistoryHandler(p.Monitor.History()))
	return s
}

// evaluations exposes the monitor's SLO verdicts to /statusz (empty
// when monitoring is disabled).
func (s *Server) evaluations() []monitor.Evaluation {
	return s.p.Monitor.Evaluator().Evaluate()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var _ http.Handler = (*Server)(nil)

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// handleLogin exchanges a federated identity token for a session token.
func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var tok rbac.IdentityToken
	if err := json.NewDecoder(r.Body).Decode(&tok); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"malformed token"})
		return
	}
	userID, err := s.p.RBAC.Authenticate(&tok, time.Now())
	if err != nil {
		writeJSON(w, http.StatusUnauthorized, errorBody{err.Error()})
		return
	}
	session := hckrypto.NewUUID()
	s.mu.Lock()
	s.sessions[session] = userID
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"token": session, "user": userID})
}

// handleHealth is the legacy liveness route. It now derives its verdict
// from the same prober as /readyz so the two can never disagree: same
// overall state, same status code policy (200 unless a dependency is
// down), same cached report (fresh probe rounds only when the watchdog
// hasn't refreshed it recently). Without monitoring the prober is nil
// and reports ok, which is exactly the old static behavior.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep := s.p.Monitor.Prober().Cached()
	status := http.StatusOK
	if !rep.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"status":     rep.Overall.String(),
		"components": s.p.Components(),
	})
}

// authenticate resolves the bearer token to a user.
func (s *Server) authenticate(r *http.Request) (string, error) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return "", errors.New("missing bearer token")
	}
	s.mu.RLock()
	user, ok := s.sessions[strings.TrimPrefix(h, prefix)]
	s.mu.RUnlock()
	if !ok {
		return "", errors.New("invalid session")
	}
	return user, nil
}

// guard wraps a handler with authenticate → RBAC (§II-B API management)
// and bounds the request with a per-request timeout context so a stalled
// backend cannot pin the connection forever. With telemetry enabled it
// also times the request on a per-route histogram and opens a root span
// handlers can continue (via telemetry.SpanFromContext).
func (s *Server) guard(resource string, action rbac.Action, class admission.Class, next func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	// Metric handles are created once per route at wiring time so the
	// request path pays only nil checks and atomics.
	var reqs *telemetry.Counter
	var hist *telemetry.Histogram
	if reg := s.p.Telemetry.Registry(); reg != nil {
		label := fmt.Sprintf("{route=%q}", resource+":"+string(action))
		reqs = reg.Counter("http_requests_total" + label)
		hist = reg.Histogram("http_request_seconds" + label)
	}
	tracer := s.p.Telemetry.Spans()
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		start := hist.Start()
		sp := tracer.StartRoot("http." + resource)
		sc := sp.Context()
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		defer func() {
			sp.End()
			// The handler has returned: the request's trace is over.
			tracer.FinishTrace(sc.TraceID)
			hist.ObserveSinceTrace(start, sc.TraceID)
		}()
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		r = r.WithContext(telemetry.ContextWithSpan(ctx, sc))
		user, err := s.authenticate(r)
		if err != nil {
			sp.SetAttr("outcome", "unauthenticated")
			writeJSON(w, http.StatusUnauthorized, errorBody{err.Error()})
			return
		}
		scope := rbac.Scope{Tenant: s.tenant(), Org: r.URL.Query().Get("org"), Group: r.URL.Query().Get("group")}
		if err := s.p.CheckAccess(user, action, resource, scope, r.URL.Query().Get("env")); err != nil {
			sp.SetAttr("outcome", "forbidden")
			writeJSON(w, http.StatusForbidden, errorBody{err.Error()})
			return
		}
		// Admission after authn/authz so only authorized traffic spends
		// quota: 429 when the tenant's token bucket is empty, 503 when the
		// ingest backlog crossed this class's shed line, both with the
		// honest Retry-After (time to next token / estimated drain time).
		// A nil controller (admission off) admits everything.
		if d := s.p.Admission.Admit(s.tenant(), class); !d.Allowed {
			status := http.StatusServiceUnavailable
			if d.Reason == admission.ReasonRateLimit {
				status = http.StatusTooManyRequests
			}
			sp.SetAttr("outcome", d.Reason)
			w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterSeconds()))
			writeJSON(w, status, errorBody{d.Err().Error()})
			return
		}
		next(w, r, user)
	}
}

func (s *Server) tenant() string {
	// One instance serves one tenant; the RBAC system was seeded with it.
	return s.p.KMS.Tenant()
}

// handleRegisterClient issues an enhanced client its shared key.
func (s *Server) handleRegisterClient(w http.ResponseWriter, r *http.Request, _ string) {
	var body struct {
		ClientID string `json:"client_id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.ClientID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"client_id required"})
		return
	}
	key, err := s.p.Ingest.RegisterClient(body.ClientID)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{
		"client_id": body.ClientID,
		"key":       base64.StdEncoding.EncodeToString(key),
	})
}

// handleUpload accepts an encrypted bundle; responds with the status URL.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, _ string) {
	clientID := r.URL.Query().Get("client")
	group := r.URL.Query().Get("group")
	if clientID == "" || group == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"client and group query params required"})
		return
	}
	encrypted, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil || len(encrypted) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"empty body"})
		return
	}
	id, err := s.p.Ingest.Upload(clientID, group, encrypted)
	if err != nil {
		// An unregistered client is the caller's mistake; anything else
		// (staging or lake trouble) is transient server-side load, so
		// answer 503 + Retry-After and let the client resubmit — the
		// bundle was not accepted, nothing is half-ingested. The hint is
		// the measured drain estimate (queue depth ÷ observed service
		// rate, clamped to [1s, 30s]), the same one the shedding path
		// answers with; with nothing observed yet it degrades to the old
		// static "1".
		if !errors.Is(err, ingest.ErrUnknownClient) {
			w.Header().Set("Retry-After", strconv.Itoa(s.p.DrainEst.RetryAfterSeconds()))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"upload_id":  id,
		"status_url": "/api/v1/uploads/" + id,
	})
}

func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request, _ string) {
	st, err := s.p.Ingest.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleKB(w http.ResponseWriter, r *http.Request, _ string) {
	breaker := s.p.KBResilient.Breaker()
	// Continue the request's root span into the cache tiers, so a trace
	// shows whether the read hit a tier or paid the origin WAN cost.
	v, err := s.p.KBCache.GetCtx(r.PathValue("key"), telemetry.SpanFromContext(r.Context()))
	if err != nil {
		// Circuit open with nothing stale to degrade to: tell the client
		// when to come back instead of a generic failure.
		if errors.Is(err, kb.ErrDegraded) || errors.Is(err, resilience.ErrOpen) {
			retryAfter := int(breaker.RetryAfter().Round(time.Second) / time.Second)
			if retryAfter < 1 {
				retryAfter = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	if breaker.State() != resilience.Closed {
		// The origin is (or was just) unreachable, so this value came
		// from a cache tier or the stale last-known-good store: flag it
		// so clients can treat it as possibly outdated.
		w.Header().Set("Warning", `110 healthcloud "response is stale"`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(v)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, _ string) {
	payload, err := s.p.Analytics.PushPayload(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

func (s *Server) handleExportAnonymized(w http.ResponseWriter, r *http.Request, user string) {
	group := r.URL.Query().Get("group")
	if group == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"group required"})
		return
	}
	recs, err := s.p.Ingest.ExportAnonymized(group, user)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorBody{err.Error()})
		return
	}
	s.p.Meter.Record(s.tenant(), "export", float64(len(recs)), time.Now())
	writeJSON(w, http.StatusOK, recs)
}

// handleBilling returns the tenant's statement for the trailing 30 days
// (§II-B metering and billing).
func (s *Server) handleBilling(w http.ResponseWriter, _ *http.Request, _ string) {
	now := time.Now().UTC()
	bill := s.p.Meter.BillFor(s.tenant(), now.Add(-30*24*time.Hour), now.Add(time.Second))
	writeJSON(w, http.StatusOK, bill)
}

// handleServices lists providers of a capability with their observed
// stats and the current best pick (§III service brokerage).
func (s *Server) handleServices(w http.ResponseWriter, r *http.Request, _ string) {
	capability := services.Capability(r.PathValue("capability"))
	names := s.p.Services.Providers(capability)
	if len(names) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{"no providers for capability"})
		return
	}
	type row struct {
		Name         string  `json:"name"`
		MeanLatencyM float64 `json:"mean_latency_ms"`
		Availability float64 `json:"availability"`
		Accuracy     float64 `json:"measured_accuracy"`
		UserRating   float64 `json:"user_rating"`
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		st, err := s.p.Services.StatsFor(name)
		if err != nil {
			continue
		}
		rows = append(rows, row{
			Name:         name,
			MeanLatencyM: float64(st.MeanLatency().Microseconds()) / 1000,
			Availability: st.Availability(),
			Accuracy:     st.MeasuredAccuracy(),
			UserRating:   st.UserRating(),
		})
	}
	best, err := s.p.Services.Best(capability, services.Criteria{})
	resp := map[string]any{"providers": rows}
	if err == nil {
		resp["best"] = best
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFacts runs text extraction over the PubMed-style corpus and
// returns mined drug–disease co-occurrence facts.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request, _ string) {
	minSupport := 2
	if v := r.URL.Query().Get("min_support"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{"min_support must be a positive integer"})
			return
		}
		minSupport = n
	}
	facts := s.p.MineFacts(300, minSupport)
	if len(facts) > 50 {
		facts = facts[:50]
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(facts), "facts": facts})
}

// handleGrantConsent records a patient's consent of their data to a
// study group (§II-B consent management).
func (s *Server) handleGrantConsent(w http.ResponseWriter, r *http.Request, _ string) {
	var body struct {
		Patient string `json:"patient"`
		Group   string `json:"group"`
		Purpose string `json:"purpose"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil ||
		body.Patient == "" || body.Group == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"patient and group required"})
		return
	}
	purpose := consent.Purpose(body.Purpose)
	switch purpose {
	case "":
		purpose = consent.PurposeResearch
	case consent.PurposeResearch, consent.PurposeExport, consent.PurposeTreatment:
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{"unknown purpose"})
		return
	}
	s.p.Consents.Grant(body.Patient, body.Group, purpose, 0)
	writeJSON(w, http.StatusCreated, map[string]string{
		"patient": body.Patient, "group": body.Group, "purpose": string(purpose),
	})
}

// handleRevokeConsent withdraws a patient's consent from a study group.
// It is ClassCritical on purpose: a revocation arriving during overload
// must not queue behind the bulk ingest being shed — GDPR/HIPAA
// withdrawal is only meaningful if it takes effect promptly.
func (s *Server) handleRevokeConsent(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query()
	patient, group := q.Get("patient"), q.Get("group")
	if patient == "" || group == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{"patient and group query params required"})
		return
	}
	purpose := consent.Purpose(q.Get("purpose"))
	switch purpose {
	case "":
		purpose = consent.PurposeResearch
	case consent.PurposeResearch, consent.PurposeExport, consent.PurposeTreatment:
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{"unknown purpose"})
		return
	}
	revoked := s.p.Consents.Revoke(patient, group, purpose)
	writeJSON(w, http.StatusOK, map[string]any{
		"patient": patient, "group": group, "purpose": string(purpose),
		"revoked": revoked,
	})
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query()
	events := s.p.Audit.Find(audit.Query{
		Service: q.Get("service"),
		Action:  q.Get("action"),
		Actor:   q.Get("actor"),
	})
	writeJSON(w, http.StatusOK, map[string]any{"count": len(events), "events": events})
}
