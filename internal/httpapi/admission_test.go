package httpapi

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"healthcloud/internal/core"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/metering"
	"healthcloud/internal/shardlake"
)

// retryAfterAtLeast1 asserts a rejection carries a usable integer
// Retry-After header.
func retryAfterAtLeast1(t *testing.T, resp *http.Response) {
	t.Helper()
	n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
}

// TestAdmissionRateLimit429 pins the token-bucket surface: with a tiny
// default quota the tenant's burst is admitted, the next request gets
// 429 + Retry-After, and a metered quota upgrade takes effect without a
// restart.
func TestAdmissionRateLimit429(t *testing.T) {
	f := newAPIWith(t, func(cfg *core.Config) {
		cfg.Admission = true
		cfg.AdmissionRate = 1
		cfg.AdmissionBurst = 3
	})
	allowed, limited := 0, 0
	var last *http.Response
	for i := 0; i < 4; i++ {
		last = f.doRaw(t, "GET", "/api/v1/billing", f.admin)
		switch last.StatusCode {
		case http.StatusOK:
			allowed++
		case http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("request %d: unexpected status %d", i, last.StatusCode)
		}
	}
	if allowed != 3 || limited != 1 {
		t.Fatalf("allowed/limited = %d/%d, want 3/1", allowed, limited)
	}
	retryAfterAtLeast1(t, last)

	// Plan upgrade through metering: the quota refreshes the live bucket
	// (no restart, no new bucket). The first admission applies the new
	// rate — earned tokens are never backdated — so refill accrues at
	// 1000/s from that point on.
	f.p.Meter.SetQuota("mercy-health", metering.Quota{PerSec: 1000, Burst: 1000})
	f.doRaw(t, "GET", "/api/v1/billing", f.admin) // applies the new rate
	time.Sleep(20 * time.Millisecond)             // accrue a few tokens at 1000/s
	if resp := f.doRaw(t, "GET", "/api/v1/billing", f.admin); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after quota upgrade = %d, want 200", resp.StatusCode)
	}

	// Unguarded operational routes never spend quota.
	if resp := f.doRaw(t, "GET", "/api/v1/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under rate limit = %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionShedsBulkKeepsCritical pins the priority-class contract:
// with the ingest backlog over the bulk shed line, uploads answer 503 +
// Retry-After while consent changes (critical) and interactive reads
// (normal, deeper limit) keep landing.
func TestAdmissionShedsBulkKeepsCritical(t *testing.T) {
	faults := faultinject.NewRegistry(24)
	f := newAPIWith(t, func(cfg *core.Config) {
		cfg.Faults = faults
		cfg.Admission = true
		cfg.AdmissionRate = 1e6 // buckets out of the way: this test is about shedding
		cfg.ShedBulkDepth = 4
		cfg.ShedNormalDepth = 1000
	})
	// Build a real backlog: slow the lake's writes down (two puts per
	// upload, four workers: ~1.6 s to drain 40) and enqueue well past the
	// bulk limit (directly through the pipeline — the HTTP path would
	// start shedding at depth 4 and never let the queue grow).
	faults.Enable(shardlake.FaultPoint(shardlake.ShardName(0), "put"),
		faultinject.Fault{LatencyRate: 1, Latency: 80 * time.Millisecond})
	key, err := f.p.Ingest.RegisterClient("flood-device")
	if err != nil {
		t.Fatal(err)
	}
	bundle := fhir.NewBundle("collection")
	if err := bundle.AddResource(&fhir.Patient{ResourceType: "Patient", ID: "patient-flood", Gender: "other"}); err != nil {
		t.Fatal(err)
	}
	f.p.Consents.Grant("patient-flood", "study-x", "research", 0)
	raw, err := fhir.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}
	encrypted, err := hckrypto.EncryptGCM(key, raw, []byte("flood-device"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.p.Ingest.Upload("flood-device", "study-x", encrypted); err != nil {
			t.Fatal(err)
		}
	}
	if depth := f.p.Ingest.QueueDepth(); depth < 4 {
		t.Fatalf("backlog %d below the shed line, fixture broken", depth)
	}

	// Bulk: shed with 503 + Retry-After.
	req, _ := http.NewRequest("POST", f.srv.URL+"/api/v1/uploads?client=flood-device&group=study-x", nil)
	req.Header.Set("Authorization", "Bearer "+f.admin)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bulk upload over shed line = %d, want 503", resp.StatusCode)
	}
	retryAfterAtLeast1(t, resp)

	// Critical: consent grant and revocation land despite the backlog.
	status, _ := f.do(t, "POST", "/api/v1/consents", f.admin,
		[]byte(`{"patient":"patient-9","group":"study-x"}`))
	if status != http.StatusCreated {
		t.Fatalf("consent grant during shedding = %d, want 201", status)
	}
	status, body := f.do(t, "DELETE", "/api/v1/consents?patient=patient-9&group=study-x", f.admin, nil)
	if status != http.StatusOK {
		t.Fatalf("consent revoke during shedding = %d, want 200", status)
	}
	if n, ok := body["revoked"].(float64); !ok || n < 1 {
		t.Fatalf("revoke response = %v, want revoked >= 1", body)
	}
	if err := f.p.Consents.Check("patient-9", "study-x", "research"); err == nil {
		t.Fatal("consent still active after revocation")
	}

	// Normal: deeper limit, still admitted at this backlog.
	if resp := f.doRaw(t, "GET", "/api/v1/billing", f.admin); resp.StatusCode != http.StatusOK {
		t.Fatalf("normal read during bulk shedding = %d, want 200", resp.StatusCode)
	}
}

// TestConsentRevokeRoute pins the new DELETE surface's validation.
func TestConsentRevokeRoute(t *testing.T) {
	f := newAPI(t)
	status, _ := f.do(t, "DELETE", "/api/v1/consents", f.admin, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("revoke without params = %d, want 400", status)
	}
	status, _ = f.do(t, "DELETE", "/api/v1/consents?patient=p&group=g&purpose=bogus", f.admin, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("revoke with bogus purpose = %d, want 400", status)
	}
	// Revoking a consent that was never granted is a 200 with revoked=0:
	// the end state (no consent) holds either way.
	status, body := f.do(t, "DELETE", "/api/v1/consents?patient=p&group=g", f.admin, nil)
	if status != http.StatusOK {
		t.Fatalf("revoke of absent consent = %d, want 200", status)
	}
	if n, ok := body["revoked"].(float64); !ok || n != 0 {
		t.Fatalf("revoked = %v, want 0", body["revoked"])
	}
}

// TestAdmissionOffByteIdentical asserts the default-off contract: no
// admission flag means no 429/503-shed statuses and no admission
// metrics, exactly the pre-subsystem surface.
func TestAdmissionOffByteIdentical(t *testing.T) {
	f := newAPI(t)
	for i := 0; i < 50; i++ {
		if resp := f.doRaw(t, "GET", "/api/v1/billing", f.admin); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with admission off = %d, want 200", i, resp.StatusCode)
		}
	}
	if f.p.Admission != nil {
		t.Fatal("admission controller built without Config.Admission")
	}
}
