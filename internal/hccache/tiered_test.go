package hccache

import (
	"sync/atomic"
	"testing"
	"time"

	"healthcloud/internal/telemetry"
)

// countingOrigin returns a loader that records how many times each key
// reached the origin.
func countingOrigin(loads *atomic.Uint64) Loader {
	return func(key string) ([]byte, uint64, error) {
		loads.Add(1)
		return []byte("origin:" + key), 1, nil
	}
}

// twoTier builds a tiered cache with a deliberately tiny tier 0 (so LRU
// demotes hot keys out of it) in front of a roomy tier 1.
func twoTier(t *testing.T, tier0Cap int, loads *atomic.Uint64) (*Tiered, *Cache, *Cache) {
	t.Helper()
	t0, err := New(tier0Cap, time.Minute)
	if err != nil {
		t.Fatalf("tier 0: %v", err)
	}
	t1, err := New(64, time.Minute)
	if err != nil {
		t.Fatalf("tier 1: %v", err)
	}
	tc, err := NewTiered(countingOrigin(loads), t0, t1)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	return tc, t0, t1
}

// TestTieredPromotionAfterDemotion walks a key through the full
// lifecycle: origin load fills both tiers, LRU eviction demotes it out
// of tier 0 (tier 1 still holds it), and the next read hits tier 1 and
// promotes the key back into tier 0 — without touching the origin.
func TestTieredPromotionAfterDemotion(t *testing.T) {
	var loads atomic.Uint64
	tc, t0, _ := twoTier(t, 2, &loads)

	if _, err := tc.Get("hot"); err != nil {
		t.Fatalf("initial get: %v", err)
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("origin loads after first get = %d, want 1", got)
	}

	// Evict "hot" from the 2-slot tier 0 by loading two fresher keys.
	for _, k := range []string{"fill-a", "fill-b"} {
		if _, err := tc.Get(k); err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
	}
	if _, _, ok := t0.Get("hot"); ok {
		t.Fatal("hot should have been demoted out of tier 0 by LRU")
	}
	if got := t0.Stats().Evictions; got == 0 {
		t.Fatal("tier 0 reports no evictions after overflow")
	}

	// The re-read must be served by tier 1, not the origin...
	before := loads.Load()
	v, err := tc.Get("hot")
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if string(v) != "origin:hot" {
		t.Fatalf("re-read value = %q", v)
	}
	if got := loads.Load(); got != before {
		t.Fatalf("re-read reached origin (loads %d -> %d)", before, got)
	}
	// ...and must promote the key back into tier 0.
	if _, _, ok := t0.Get("hot"); !ok {
		t.Fatal("tier-1 hit did not back-fill tier 0")
	}
}

// TestTieredHitMissAccounting scripts an access sequence and checks
// that per-tier Stats, OriginLoads, and the telemetry counters all
// agree on what happened.
func TestTieredHitMissAccounting(t *testing.T) {
	var loads atomic.Uint64
	tc, t0, _ := twoTier(t, 1, &loads)
	reg := telemetry.NewRegistry()
	tc.SetTelemetry(reg, nil)

	// a: origin. a again: tier-0 hit. b: origin, evicting a from the
	// 1-slot tier 0. a: tier-1 hit (promotes a, evicting b). b: tier-1
	// hit. Totals: 5 gets, 2 origin loads, 1 tier-0 hit, 2 tier-1 hits.
	for _, k := range []string{"a", "a", "b", "a", "b"} {
		if _, err := tc.Get(k); err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
	}

	if got := tc.OriginLoads(); got != 2 {
		t.Errorf("OriginLoads = %d, want 2", got)
	}
	if got := loads.Load(); got != 2 {
		t.Errorf("loader invocations = %d, want 2", got)
	}
	stats := tc.TierStats()
	if stats[0].Hits != 1 {
		t.Errorf("tier 0 hits = %d, want 1", stats[0].Hits)
	}
	if stats[1].Hits != 2 {
		t.Errorf("tier 1 hits = %d, want 2", stats[1].Hits)
	}
	// Tier 0 saw every probe: 1 hit, 4 misses.
	if stats[0].Misses != 4 {
		t.Errorf("tier 0 misses = %d, want 4", stats[0].Misses)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"cache_gets_total":           5,
		"cache_origin_loads_total":   2,
		`cache_hits_total{tier="0"}`: 1,
		`cache_hits_total{tier="1"}`: 2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms["cache_get_seconds"]; h.Count != 5 {
		t.Errorf("cache_get_seconds count = %d, want 5", h.Count)
	}
	if h := snap.Histograms["cache_origin_seconds"]; h.Count != 2 {
		t.Errorf("cache_origin_seconds count = %d, want 2", h.Count)
	}
	if got := t0.Stats().HitRate(); got != 0.2 {
		t.Errorf("tier 0 hit rate = %v, want 0.2", got)
	}
}

// TestTieredInvalidateAllTiers verifies server-push invalidation drops
// the key from every tier at once, so the next read is a cold origin
// load rather than a stale hit from a deeper tier.
func TestTieredInvalidateAllTiers(t *testing.T) {
	var loads atomic.Uint64
	tc, t0, t1 := twoTier(t, 4, &loads)

	if _, err := tc.Get("record-7"); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if _, _, ok := t0.Get("record-7"); !ok {
		t.Fatal("tier 0 not warmed")
	}
	if _, _, ok := t1.Get("record-7"); !ok {
		t.Fatal("tier 1 not warmed")
	}

	tc.Invalidate("record-7")
	if _, _, ok := t0.Get("record-7"); ok {
		t.Fatal("tier 0 still holds invalidated key")
	}
	if _, _, ok := t1.Get("record-7"); ok {
		t.Fatal("tier 1 still holds invalidated key")
	}

	if _, err := tc.Get("record-7"); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := loads.Load(); got != 2 {
		t.Fatalf("origin loads after invalidate+reload = %d, want 2", got)
	}
}

// TestTieredGetCtxSpans checks the tracing contract: traced gets emit
// cache.get (and cache.origin on a full miss) under the caller's span,
// while untraced gets stay out of the span store entirely.
func TestTieredGetCtxSpans(t *testing.T) {
	var loads atomic.Uint64
	tc, _, _ := twoTier(t, 4, &loads)
	tr := telemetry.NewTracer(0, 0, telemetry.DefaultPolicy())
	tc.SetTelemetry(telemetry.NewRegistry(), tr)

	// Untraced get: metrics only, no spans.
	if _, err := tc.Get("quiet"); err != nil {
		t.Fatalf("untraced get: %v", err)
	}
	if ids := tr.TraceIDs(); len(ids) != 0 {
		t.Fatalf("untraced get created %d traces", len(ids))
	}

	root := tr.StartRoot("test.request")
	sc := root.Context()
	if _, err := tc.GetCtx("loud", sc); err != nil { // full miss -> origin
		t.Fatalf("traced miss: %v", err)
	}
	if _, err := tc.GetCtx("loud", sc); err != nil { // tier-0 hit
		t.Fatalf("traced hit: %v", err)
	}
	root.End()

	spans := tr.Trace(sc.TraceID.String())
	byName := map[string][]telemetry.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if got := len(byName["cache.get"]); got != 2 {
		t.Fatalf("cache.get spans = %d, want 2 (trace: %v)", got, names(spans))
	}
	if got := len(byName["cache.origin"]); got != 1 {
		t.Fatalf("cache.origin spans = %d, want 1 (trace: %v)", got, names(spans))
	}
	for _, sp := range byName["cache.get"] {
		if sp.ParentID != sc.SpanID.String() {
			t.Errorf("cache.get parent = %s, want root %s", sp.ParentID, sc.SpanID)
		}
	}
	var outcomes []string
	for _, sp := range byName["cache.get"] {
		outcomes = append(outcomes, sp.Attrs["outcome"])
	}
	if outcomes[0] != "origin" || outcomes[1] != "hit" {
		t.Errorf("outcomes = %v, want [origin hit]", outcomes)
	}
	if hit := byName["cache.get"][1]; hit.Attrs["tier"] != "0" {
		t.Errorf("hit tier attr = %q, want \"0\"", hit.Attrs["tier"])
	}
	// The origin span must nest under the missing get, not the root.
	if osp := byName["cache.origin"][0]; osp.ParentID != byName["cache.get"][0].SpanID {
		t.Errorf("cache.origin parent = %s, want cache.get %s", osp.ParentID, byName["cache.get"][0].SpanID)
	}
}

func names(spans []telemetry.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTieredOriginError verifies a failing origin neither poisons the
// tiers nor loses the error, and that metrics still count the attempt.
func TestTieredOriginError(t *testing.T) {
	var calls atomic.Uint64
	origin := func(key string) ([]byte, uint64, error) {
		calls.Add(1)
		return nil, 0, ErrNotFound
	}
	t0, err := New(4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTiered(origin, t0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tc.SetTelemetry(reg, nil)

	for i := 0; i < 3; i++ {
		if _, err := tc.Get("ghost"); err == nil {
			t.Fatalf("get %d: expected error", i)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("origin calls = %d, want 3 (errors must not be cached)", got)
	}
	if got := tc.OriginLoads(); got != 0 {
		t.Fatalf("OriginLoads = %d, want 0 (only successful loads count)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cache_origin_loads_total"]; got != 3 {
		t.Fatalf("cache_origin_loads_total = %d, want 3 (attempts)", got)
	}
	if t0.Len() != 0 {
		t.Fatalf("tier 0 holds %d entries after failed loads", t0.Len())
	}
}
