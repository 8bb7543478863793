package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"healthcloud/internal/analytics"
	"healthcloud/internal/consent"
	"healthcloud/internal/core"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/kb"
	"healthcloud/internal/monitor"
	"healthcloud/internal/rbac"
	"healthcloud/internal/shardlake"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// apiFixture is a running API server with an admin session.
type apiFixture struct {
	srv   *httptest.Server
	p     *core.Platform
	idp   *rbac.IdentityProvider
	admin string // bearer token
}

func newAPI(t *testing.T) *apiFixture {
	t.Helper()
	return newAPIWith(t, nil)
}

// newAPIWith lets a test adjust the platform config (e.g. install a
// fault-injection registry) before the instance starts.
func newAPIWith(t *testing.T, mutate func(*core.Config)) *apiFixture {
	t.Helper()
	kbCfg := kb.DefaultConfig()
	kbCfg.Drugs, kbCfg.Diseases = 20, 10
	dataset, err := kb.Generate(kbCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Tenant: "mercy-health", KBDataset: dataset}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)

	idp, err := rbac.NewIdentityProvider("hospital-sso")
	if err != nil {
		t.Fatal(err)
	}
	p.RBAC.ApproveIdentityProvider("hospital-sso", idp.VerifyKey())
	f := &apiFixture{srv: srv, p: p, idp: idp}
	f.admin = f.login(t, "admin@hospital.org", rbac.RoleAdmin)
	return f
}

// login registers a user with a role and returns their session token.
func (f *apiFixture) login(t *testing.T, subject string, role rbac.Role) string {
	t.Helper()
	userID := "hospital-sso:" + subject
	f.p.RBAC.RegisterUser("mercy-health", userID)
	if err := f.p.RBAC.AssignRole(userID, role, rbac.Scope{Tenant: "mercy-health"}, ""); err != nil {
		t.Fatal(err)
	}
	tok, err := f.idp.Issue(subject, "mercy-health", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(tok)
	resp, err := http.Post(f.srv.URL+"/api/v1/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status = %d", resp.StatusCode)
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	return out["token"]
}

// do issues an authenticated request and decodes the JSON response.
func (f *apiFixture) do(t *testing.T, method, path, token string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	f := newAPI(t)
	status, body := f.do(t, "GET", "/api/v1/healthz", "", nil)
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, body)
	}
	if comps, ok := body["components"].([]any); !ok || len(comps) < 15 {
		t.Errorf("components = %v", body["components"])
	}
}

func TestLoginRejectsBadTokens(t *testing.T) {
	f := newAPI(t)
	resp, err := http.Post(f.srv.URL+"/api/v1/login", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}
	// A token signed by an unapproved IdP.
	rogue, err := rbac.NewIdentityProvider("rogue")
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := rogue.Issue("mallory", "mercy-health", time.Hour)
	body, _ := json.Marshal(tok)
	resp2, err := http.Post(f.srv.URL+"/api/v1/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Errorf("rogue idp: %d", resp2.StatusCode)
	}
}

func TestAuthRequired(t *testing.T) {
	f := newAPI(t)
	status, _ := f.do(t, "GET", "/api/v1/kb/drug:drug-000", "", nil)
	if status != http.StatusUnauthorized {
		t.Errorf("no token: %d", status)
	}
	status, _ = f.do(t, "GET", "/api/v1/kb/drug:drug-000", "not-a-session", nil)
	if status != http.StatusUnauthorized {
		t.Errorf("bad token: %d", status)
	}
}

func TestRBACEnforcedPerRoute(t *testing.T) {
	f := newAPI(t)
	auditor := f.login(t, "auditor@hospital.org", rbac.RoleAuditor)
	// Auditor can read logs...
	status, body := f.do(t, "GET", "/api/v1/audit?service=platform", auditor, nil)
	if status != http.StatusOK {
		t.Errorf("auditor reading logs: %d %v", status, body)
	}
	// ...but not the KB, models, or uploads.
	if status, _ := f.do(t, "GET", "/api/v1/kb/drug:drug-000", auditor, nil); status != http.StatusForbidden {
		t.Errorf("auditor reading kb: %d", status)
	}
	if status, _ := f.do(t, "POST", "/api/v1/clients", auditor, []byte(`{"client_id":"x"}`)); status != http.StatusForbidden {
		t.Errorf("auditor registering client: %d", status)
	}
}

func TestUploadFlowOverHTTP(t *testing.T) {
	f := newAPI(t)
	ingestor := f.login(t, "nurse@hospital.org", rbac.RoleIngestor)
	// Register a client device.
	status, body := f.do(t, "POST", "/api/v1/clients", ingestor, []byte(`{"client_id":"device-1"}`))
	if status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	key, err := base64.StdEncoding.DecodeString(body["key"].(string))
	if err != nil {
		t.Fatal(err)
	}
	// Build and encrypt a bundle exactly as the SDK would.
	f.p.Consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)
	b := fhir.NewBundle("collection")
	b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: "patient-1", Gender: "female"})
	raw, _ := fhir.Marshal(b)
	encrypted, err := hckrypto.EncryptGCM(key, raw, []byte("device-1"))
	if err != nil {
		t.Fatal(err)
	}
	status, body = f.do(t, "POST", "/api/v1/uploads?client=device-1&group=study-1", ingestor, encrypted)
	if status != http.StatusAccepted {
		t.Fatalf("upload: %d %v", status, body)
	}
	statusURL := body["status_url"].(string)
	// Poll the status URL until terminal.
	deadline := time.Now().Add(10 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		_, last = f.do(t, "GET", statusURL, ingestor, nil)
		if last["state"] == "stored" || last["state"] == "failed" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last["state"] != "stored" {
		t.Fatalf("final status = %v", last)
	}
}

func TestUploadValidation(t *testing.T) {
	f := newAPI(t)
	if status, _ := f.do(t, "POST", "/api/v1/uploads", f.admin, []byte("x")); status != http.StatusBadRequest {
		t.Errorf("missing params: %d", status)
	}
	if status, _ := f.do(t, "POST", "/api/v1/uploads?client=ghost&group=g", f.admin, []byte("x")); status != http.StatusBadRequest {
		t.Errorf("unregistered client: %d", status)
	}
	if status, _ := f.do(t, "GET", "/api/v1/uploads/ghost", f.admin, nil); status != http.StatusNotFound {
		t.Errorf("unknown upload: %d", status)
	}
}

func TestKBEndpoint(t *testing.T) {
	f := newAPI(t)
	status, body := f.do(t, "GET", "/api/v1/kb/drug:drug-000", f.admin, nil)
	if status != http.StatusOK || body["id"] != "drug-000" {
		t.Errorf("kb = %d %v", status, body)
	}
	if status, _ := f.do(t, "GET", "/api/v1/kb/drug:ghost", f.admin, nil); status != http.StatusNotFound {
		t.Errorf("unknown key: %d", status)
	}
}

func TestModelEndpoint(t *testing.T) {
	f := newAPI(t)
	if status, _ := f.do(t, "GET", "/api/v1/models/hba1c", f.admin, nil); status != http.StatusNotFound {
		t.Errorf("undeployed model: %d", status)
	}
	m := &analytics.LinearModel{Name: "hba1c", Bias: 6}
	payload, _ := m.Marshal()
	f.p.Analytics.Create("hba1c", nil)
	f.p.Analytics.MarkTrained("hba1c", 1, payload)
	f.p.Analytics.RecordTest("hba1c", 1, map[string]float64{"auc": 0.9}, "auc", 0.5)
	f.p.Analytics.Approve("hba1c", 1, "compliance")
	f.p.Analytics.Deploy("hba1c", 1)
	status, body := f.do(t, "GET", "/api/v1/models/hba1c", f.admin, nil)
	if status != http.StatusOK || body["bias"].(float64) != 6 {
		t.Errorf("model = %d %v", status, body)
	}
}

func TestExportEndpoint(t *testing.T) {
	f := newAPI(t)
	cro := f.login(t, "cro@partner.org", rbac.RoleCRO)
	// No data yet.
	if status, _ := f.do(t, "GET", "/api/v1/exports/anonymized?group=study-1", cro, nil); status != http.StatusForbidden {
		t.Errorf("empty export: %d", status)
	}
	// Ingest three identical-quasi patients, then export passes k=2.
	key, err := f.p.Ingest.RegisterClient("device-9")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pid := fmt.Sprintf("patient-%d", i)
		f.p.Consents.Grant(pid, "study-1", consent.PurposeResearch, 0)
		b := fhir.NewBundle("collection")
		b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: pid, Gender: "female",
			Address: []fhir.Address{{State: "NY", PostalCode: "10598"}}})
		raw, _ := fhir.Marshal(b)
		ct, _ := hckrypto.EncryptGCM(key, raw, []byte("device-9"))
		id, err := f.p.Ingest.Upload("device-9", "study-1", ct)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.p.Ingest.WaitForUpload(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest("GET", f.srv.URL+"/api/v1/exports/anonymized?group=study-1", nil)
	req.Header.Set("Authorization", "Bearer "+cro)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	var recs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("exported %d records", len(recs))
	}
}

func TestServicesEndpoint(t *testing.T) {
	f := newAPI(t)
	f.p.SeedDemoProviders()
	status, body := f.do(t, "GET", "/api/v1/services/nlu", f.admin, nil)
	if status != http.StatusOK {
		t.Fatalf("services = %d %v", status, body)
	}
	providers, ok := body["providers"].([]any)
	if !ok || len(providers) != 3 {
		t.Fatalf("providers = %v", body["providers"])
	}
	if body["best"] == nil || body["best"] == "" {
		t.Error("no best provider selected")
	}
	// Unknown capability.
	if status, _ := f.do(t, "GET", "/api/v1/services/telepathy", f.admin, nil); status != http.StatusNotFound {
		t.Errorf("unknown capability: %d", status)
	}
}

func TestFactsEndpoint(t *testing.T) {
	f := newAPI(t)
	status, body := f.do(t, "GET", "/api/v1/facts?min_support=1", f.admin, nil)
	if status != http.StatusOK {
		t.Fatalf("facts = %d %v", status, body)
	}
	if body["count"].(float64) == 0 {
		t.Error("no facts mined")
	}
	if status, _ := f.do(t, "GET", "/api/v1/facts?min_support=zero", f.admin, nil); status != http.StatusBadRequest {
		t.Errorf("bad min_support: %d", status)
	}
	// RBAC: auditors cannot read services/facts.
	auditor := f.login(t, "auditor2@hospital.org", rbac.RoleAuditor)
	if status, _ := f.do(t, "GET", "/api/v1/facts", auditor, nil); status != http.StatusForbidden {
		t.Errorf("auditor reading facts: %d", status)
	}
}

func TestBillingEndpoint(t *testing.T) {
	f := newAPI(t)
	// Drive some metered usage through the client surface.
	dev, err := f.p.NewEnhancedClient("device-bill", 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := dev.QueryKB("drug:drug-00" + string(rune('0'+i%3))); err != nil {
			t.Fatal(err)
		}
	}
	status, body := f.do(t, "GET", "/api/v1/billing", f.admin, nil)
	if status != http.StatusOK {
		t.Fatalf("billing = %d %v", status, body)
	}
	if body["tenant"] != "mercy-health" {
		t.Errorf("tenant = %v", body["tenant"])
	}
	if body["total_cents"].(float64) <= 0 {
		t.Errorf("total = %v, want > 0 after metered reads", body["total_cents"])
	}
}

// doRaw issues an authenticated request and returns the raw response
// (headers included), with the body drained and closed.
func (f *apiFixture) doRaw(t *testing.T, method, path, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func TestKBDegradesAndFailsFastUnderOutage(t *testing.T) {
	faults := faultinject.NewRegistry(21)
	f := newAPIWith(t, func(cfg *core.Config) { cfg.Faults = faults })

	// A healthy fetch also banks a last-known-good copy for degradation.
	resp := f.doRaw(t, "GET", "/api/v1/kb/drug:drug-000", f.admin)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("healthy read = %d warning=%q", resp.StatusCode, resp.Header.Get("Warning"))
	}

	// Total KB outage.
	faults.Enable(kb.FaultFetch, faultinject.Fault{ErrorRate: 1})

	// The warmed key keeps serving (stale) while failures accumulate and
	// trip the breaker.
	breaker := f.p.KBResilient.Breaker()
	for i := 0; breaker.Opens() == 0 && i < 20; i++ {
		f.p.KBCache.Invalidate("drug:drug-000") // force an origin load
		resp := f.doRaw(t, "GET", "/api/v1/kb/drug:drug-000", f.admin)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded read = %d", resp.StatusCode)
		}
	}
	if breaker.Opens() == 0 {
		t.Fatal("breaker never opened under sustained KB failure")
	}
	if f.p.KBResilient.DegradedServes() == 0 {
		t.Error("no reads were served from the stale store")
	}

	// Circuit open, warmed key: still 200, but flagged stale.
	f.p.KBCache.Invalidate("drug:drug-000")
	resp = f.doRaw(t, "GET", "/api/v1/kb/drug:drug-000", f.admin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-circuit stale read = %d", resp.StatusCode)
	}
	if resp.Header.Get("Warning") == "" {
		t.Error("stale response not flagged with a Warning header")
	}

	// Circuit open, cold key: nothing to degrade to — 503 + Retry-After.
	resp = f.doRaw(t, "GET", "/api/v1/kb/drug:drug-001", f.admin)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit cold read = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

// TestTraceEndToEnd is the observability acceptance test: one upload
// through the HTTP API, with the provenance ledger on, must yield a
// trace at GET /traces/{id} that contains a span for every pipeline
// stage — including the async bus hop and the ledger phases — linked
// into a single parent/child tree rooted at the upload accept.
func TestTraceEndToEnd(t *testing.T) {
	f := newAPIWith(t, func(cfg *core.Config) {
		cfg.Telemetry = telemetry.New()
		cfg.LedgerPeers = []string{"hospital", "audit-svc", "data-protection"}
	})
	ingestor := f.login(t, "nurse@hospital.org", rbac.RoleIngestor)
	status, body := f.do(t, "POST", "/api/v1/clients", ingestor, []byte(`{"client_id":"device-1"}`))
	if status != http.StatusCreated {
		t.Fatalf("register: %d %v", status, body)
	}
	key, err := base64.StdEncoding.DecodeString(body["key"].(string))
	if err != nil {
		t.Fatal(err)
	}
	f.p.Consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)
	b := fhir.NewBundle("collection")
	b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: "patient-1", Gender: "female"})
	raw, _ := fhir.Marshal(b)
	encrypted, err := hckrypto.EncryptGCM(key, raw, []byte("device-1"))
	if err != nil {
		t.Fatal(err)
	}
	status, body = f.do(t, "POST", "/api/v1/uploads?client=device-1&group=study-1", ingestor, encrypted)
	if status != http.StatusAccepted {
		t.Fatalf("upload: %d %v", status, body)
	}
	statusURL := body["status_url"].(string)
	deadline := time.Now().Add(30 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		_, last = f.do(t, "GET", statusURL, ingestor, nil)
		if last["state"] == "stored" || last["state"] == "failed" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last["state"] != "stored" {
		t.Fatalf("final status = %v", last)
	}
	traceID, _ := last["trace_id"].(string)
	if traceID == "" {
		t.Fatalf("status carries no trace_id: %v", last)
	}

	status, trace := f.do(t, "GET", "/traces/"+traceID, "", nil)
	if status != http.StatusOK {
		t.Fatalf("trace fetch: %d %v", status, trace)
	}
	if trace["trace_id"] != traceID {
		t.Errorf("trace_id = %v, want %s", trace["trace_id"], traceID)
	}
	spans, _ := trace["spans"].([]any)
	byID := map[string]map[string]any{} // span_id -> span
	byName := map[string]map[string]any{}
	for _, raw := range spans {
		sp := raw.(map[string]any)
		byID[sp["span_id"].(string)] = sp
		byName[sp["name"].(string)] = sp
	}
	want := []string{
		"ingest.upload", "bus.hop", "ingest.process",
		"ingest.decrypt", "ingest.validate", "ingest.scan", "ingest.consent",
		"ingest.deidentify", "ingest.store", "ingest.store-deid", "ingest.provenance",
		"multichain.route", "ledger.batch-wait",
		"ledger.submit", "ledger.endorse", "ledger.order", "ledger.commit-wait",
	}
	for _, name := range want {
		if byName[name] == nil {
			t.Errorf("trace is missing span %q", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// Parent/child links: every span must chain back to the upload root.
	parentName := func(name string) string {
		pid, _ := byName[name]["parent_id"].(string)
		if pid == "" {
			return ""
		}
		parent, ok := byID[pid]
		if !ok {
			t.Fatalf("span %q has unknown parent %q", name, pid)
		}
		return parent["name"].(string)
	}
	links := map[string]string{
		"ingest.upload":      "",               // root
		"bus.hop":            "ingest.upload",  // async hop continues the trace
		"ingest.process":     "bus.hop",        // worker hangs off the hop
		"ingest.decrypt":     "ingest.process", // stages under the worker
		"ingest.validate":    "ingest.process",
		"ingest.scan":        "ingest.process",
		"ingest.consent":     "ingest.process",
		"ingest.deidentify":  "ingest.process",
		"ingest.store":       "ingest.process",
		"ingest.store-deid":  "ingest.process",
		"ingest.provenance":  "ingest.process",
		"multichain.route":   "ingest.provenance", // channel routing under the provenance stage
		"ledger.batch-wait":  "multichain.route",  // the channel's group-commit queue
		"ledger.submit":      "multichain.route",  // a lone tx commits at once, in this trace
		"ledger.endorse":     "ledger.submit",
		"ledger.order":       "ledger.submit",
		"ledger.commit-wait": "ledger.submit",
	}
	for child, wantParent := range links {
		if got := parentName(child); got != wantParent {
			t.Errorf("%s parent = %q, want %q", child, got, wantParent)
		}
	}

	// The Prometheus endpoint must expose the pipeline counters.
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"ingest_uploads_total", "ingest_stored_total", "bus_published_total"} {
		if !strings.Contains(string(text), metric) {
			t.Errorf("/metrics is missing %s", metric)
		}
	}
}

// TestReadyzEndToEnd drives the full loop the monitor tentpole
// promises: /readyz reports ok on a healthy platform, degrades (still
// 200) while replication absorbs a shard outage, turns 503 once quorum
// is lost, agrees with the legacy healthz route throughout, and returns
// to ready after recovery.
func TestReadyzEndToEnd(t *testing.T) {
	faults := faultinject.NewRegistry(31)
	f := newAPIWith(t, func(cfg *core.Config) {
		cfg.Shards, cfg.Replicas = 2, 2
		cfg.Faults = faults
		cfg.Telemetry = telemetry.New()
		cfg.Monitor = true
		cfg.MonitorInterval = -1 // manual ticks only: no goroutine racing assertions
	})

	readyz := func() (int, monitor.Report) {
		t.Helper()
		resp, err := http.Get(f.srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep monitor.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}
	healthzStatus := func() string {
		t.Helper()
		resp, err := http.Get(f.srv.URL + "/api/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return body.Status
	}

	if code, rep := readyz(); code != http.StatusOK || !rep.Ready || rep.Overall != monitor.StateOK {
		t.Fatalf("healthy: code %d report %+v", code, rep)
	}
	if got := healthzStatus(); got != "ok" {
		t.Fatalf("healthy healthz status = %q", got)
	}

	// Break one of two replicas: the lake probe degrades but the platform
	// keeps serving, so readiness stays 200 with a degraded verdict.
	shard0 := shardlake.FaultPoint(shardlake.ShardName(0), "put")
	shard1 := shardlake.FaultPoint(shardlake.ShardName(1), "put")
	faults.Enable(shard0, faultinject.Fault{ErrorRate: 1})
	code, rep := readyz()
	if code != http.StatusOK {
		t.Fatalf("degraded must stay 200, got %d", code)
	}
	if rep.Overall != monitor.StateDegraded || !rep.Ready {
		t.Fatalf("faulted report = %+v, want degraded+ready", rep)
	}
	if h := rep.Components["data-lake"]; h.State != monitor.StateDegraded {
		t.Fatalf("data-lake component = %+v, want degraded", h)
	}
	if got := healthzStatus(); got != "degraded" {
		t.Fatalf("legacy healthz disagrees with /readyz: %q", got)
	}

	// Break the other replica too: quorum is lost, the lake is Down, and
	// readiness says so.
	faults.Enable(shard1, faultinject.Fault{ErrorRate: 1})
	if code, rep := readyz(); code != http.StatusServiceUnavailable || rep.Ready ||
		rep.Components["data-lake"].State != monitor.StateDown {
		t.Fatalf("quorum lost: code %d report %+v, want 503 with data-lake down", code, rep)
	}

	// Recovery: the next probe round sees the lake healthy again.
	faults.Disable(shard0)
	faults.Disable(shard1)
	if code, rep := readyz(); code != http.StatusOK || rep.Overall != monitor.StateOK {
		t.Fatalf("recovered: code %d report %+v", code, rep)
	}
	if got := healthzStatus(); got != "ok" {
		t.Fatalf("recovered healthz status = %q", got)
	}

	// The operator page and the history ring are served too.
	resp, err := http.Get(f.srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "data-lake") {
		t.Fatalf("statusz: %d\n%s", resp.StatusCode, page)
	}
	resp, err = http.Get(f.srv.URL + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/history status %d", resp.StatusCode)
	}
}

// TestUploadBackpressure503 pins the upload backpressure contract: a
// transient server-side failure (staging down) answers 503 with a
// Retry-After hint so clients resubmit, while a caller mistake
// (unknown client) stays a plain 400.
func TestUploadBackpressure503(t *testing.T) {
	faults := faultinject.NewRegistry(31)
	f := newAPIWith(t, func(cfg *core.Config) { cfg.Faults = faults })
	ingestor := f.login(t, "nurse@hospital.org", rbac.RoleIngestor)
	status, _ := f.do(t, "POST", "/api/v1/clients", ingestor, []byte(`{"client_id":"device-1"}`))
	if status != http.StatusCreated {
		t.Fatalf("register: %d", status)
	}

	post := func() *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST",
			f.srv.URL+"/api/v1/uploads?client=device-1&group=study-1",
			bytes.NewReader([]byte("ciphertext")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+ingestor)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	faults.Enable(store.FaultStagingPut, faultinject.Fault{ErrorRate: 1})
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload with staging down = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	faults.Disable(store.FaultStagingPut)
	if resp = post(); resp.StatusCode != http.StatusAccepted {
		t.Errorf("upload after recovery = %d, want 202", resp.StatusCode)
	}

	// Caller mistakes never masquerade as server overload.
	status, _ = f.do(t, "POST", "/api/v1/uploads?client=ghost&group=g", ingestor, []byte("x"))
	if status != http.StatusBadRequest {
		t.Errorf("unknown client = %d, want 400", status)
	}
}
