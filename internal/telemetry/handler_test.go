package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandlerDisabled(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil registry: status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "telemetry disabled") {
		t.Fatalf("nil registry body = %q", rec.Body.String())
	}
}

func TestMetricsHandlerServesRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total").Add(3)
	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "probe_total 3") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestHandlersRejectNonGet(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(0, 0, DefaultPolicy())
	for name, h := range map[string]http.Handler{
		"metrics": MetricsHandler(reg),
		"traces":  TraceHandler(tr),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/x/abc", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s POST: status %d, want 405", name, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("%s Allow header = %q", name, allow)
		}
	}
}

func TestTraceHandlerErrorPaths(t *testing.T) {
	rec := httptest.NewRecorder()
	TraceHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/abc", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil tracer: status %d, want 404", rec.Code)
	}

	tr := NewTracer(0, 0, DefaultPolicy())
	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unknown trace") {
		t.Fatalf("unknown trace body = %q", rec.Body.String())
	}
}

func TestTraceHandlerServesSpans(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	sp := tr.StartRoot("op")
	id := sp.Context().TraceID.String()
	sp.End()
	rec := httptest.NewRecorder()
	// No Go 1.22 path value set: the handler falls back to the last path
	// segment.
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	var body TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != id || len(body.Spans) != 1 || len(body.Stages) != 1 {
		t.Fatalf("unexpected response: %+v", body)
	}
}
