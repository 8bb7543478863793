package telemetry

import (
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span context valid")
	}
	child := tr.StartSpan("y", SpanContext{TraceID: newTraceID(), SpanID: newSpanID()})
	if child != nil {
		t.Fatal("nil tracer produced a child span")
	}
	if tr.Trace("t") != nil || tr.TraceIDs() != nil {
		t.Fatal("nil tracer stored spans")
	}
}

func TestSpanParentLinks(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	root := tr.StartRoot("pipeline")
	ctx := root.Context()
	if !ctx.Valid() {
		t.Fatal("root context invalid")
	}
	child := tr.StartSpan("stage", ctx)
	grand := tr.StartSpan("substage", child.Context())
	grand.End()
	child.End()
	root.SetAttr("outcome", "ok")
	root.End()

	spans := tr.Trace(ctx.TraceID.String())
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != ctx.TraceID.String() {
			t.Fatalf("span %s trace %s, want %s", sp.Name, sp.TraceID, ctx.TraceID)
		}
		byName[sp.Name] = sp
	}
	if byName["pipeline"].ParentID != "" {
		t.Fatal("root has a parent")
	}
	if byName["stage"].ParentID != byName["pipeline"].SpanID {
		t.Fatal("stage not a child of pipeline")
	}
	if byName["substage"].ParentID != byName["stage"].SpanID {
		t.Fatal("substage not a child of stage")
	}
	if byName["pipeline"].Attrs["outcome"] != "ok" {
		t.Fatal("attr lost")
	}
}

func TestStartSpanWithInvalidParentStartsRoot(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	sp := tr.StartSpan("orphan", SpanContext{})
	ctx := sp.Context()
	sp.End()
	if !ctx.Valid() {
		t.Fatal("orphan got no trace")
	}
	spans := tr.Trace(ctx.TraceID.String())
	if len(spans) != 1 || spans[0].ParentID != "" {
		t.Fatalf("orphan stored wrong: %+v", spans)
	}
}

// TestTraceEvictionFIFO pins the keep-newest policy: with no slow heap
// and every trace kept, a full store evicts its oldest trace first.
func TestTraceEvictionFIFO(t *testing.T) {
	tr := NewTracer(2, 0, Policy{SampleRate: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, finishOne(tr, "r"))
	}
	if got := tr.Trace(ids[0]); got != nil {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range ids[1:] {
		if tr.Trace(id) == nil {
			t.Fatalf("trace %s evicted too early", id)
		}
	}
}

func TestSpanCapPerTrace(t *testing.T) {
	tr := NewTracer(0, 2, DefaultPolicy())
	root := tr.StartRoot("r")
	sc := root.Context()
	root.End()
	for i := 0; i < 3; i++ {
		tr.StartSpan("s", sc).End()
	}
	if got := len(tr.Trace(sc.TraceID.String())); got != 2 {
		t.Fatalf("stored %d spans, want cap 2", got)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	sp := tr.StartRoot("once")
	id := sp.Context().TraceID.String()
	sp.End()
	sp.End() // the trace is still pending, so the span is not yet recycled
	if got := len(tr.Trace(id)); got != 1 {
		t.Fatalf("recorded %d times, want 1", got)
	}
}

func TestStageBreakdownSelfTime(t *testing.T) {
	base := time.Now()
	spans := []SpanRecord{
		{TraceID: "t", SpanID: "a", Name: "process", Start: base, Duration: 100 * time.Millisecond},
		{TraceID: "t", SpanID: "b", ParentID: "a", Name: "decrypt", Start: base.Add(time.Millisecond), Duration: 30 * time.Millisecond},
		{TraceID: "t", SpanID: "c", ParentID: "a", Name: "store", Start: base.Add(40 * time.Millisecond), Duration: 50 * time.Millisecond},
	}
	stats := StageBreakdown(spans)
	if len(stats) != 3 {
		t.Fatalf("got %d stages, want 3", len(stats))
	}
	// Ordered by earliest start: process, decrypt, store.
	if stats[0].Name != "process" || stats[1].Name != "decrypt" || stats[2].Name != "store" {
		t.Fatalf("order = %v", []string{stats[0].Name, stats[1].Name, stats[2].Name})
	}
	if stats[0].Self != 20*time.Millisecond {
		t.Fatalf("process self = %v, want 20ms", stats[0].Self)
	}
	if stats[1].Self != 30*time.Millisecond || stats[2].Self != 50*time.Millisecond {
		t.Fatalf("leaf self times wrong: %v, %v", stats[1].Self, stats[2].Self)
	}
	if stats[0].MeanSelf() != 20*time.Millisecond {
		t.Fatalf("mean self = %v", stats[0].MeanSelf())
	}
}

func TestStartSpanAtBackdatesStart(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	start := time.Now().Add(-time.Second)
	parent := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	sp := tr.StartSpanAt("bus.hop", parent, start)
	sp.End()
	spans := tr.Trace(parent.TraceID.String())
	if len(spans) != 1 {
		t.Fatalf("stored %d spans", len(spans))
	}
	if spans[0].Duration < time.Second {
		t.Fatalf("duration %v, want >= 1s (backdated)", spans[0].Duration)
	}
	if spans[0].ParentID != parent.SpanID.String() {
		t.Fatal("parent link lost")
	}
}

// TestEvictionAndDropCounters forces both overflow paths of the span
// store and checks the honesty counters: whole-trace eviction and the
// per-trace span cap each leave a trail, so trace-completeness claims
// (E16) can be audited against them.
func TestEvictionAndDropCounters(t *testing.T) {
	tr := NewTracer(2, 2, Policy{SampleRate: 1})
	if tr.EvictedTraces() != 0 || tr.Dropped() != 0 {
		t.Fatal("fresh tracer reports losses")
	}
	var newest SpanContext
	for i := 0; i < 4; i++ {
		sp := tr.StartRoot("r")
		newest = sp.Context()
		sp.End()
		tr.FinishTrace(newest.TraceID)
	}
	if got := tr.EvictedTraces(); got != 2 {
		t.Fatalf("EvictedTraces = %d, want 2 (4 traces through a 2-trace store)", got)
	}
	if got := tr.StoredTraces(); got != 2 {
		t.Fatalf("StoredTraces = %d, want 2", got)
	}
	// Overflow the newest trace's span cap: 2 stored + root = cap hit.
	for i := 0; i < 3; i++ {
		tr.StartSpan("s", newest).End()
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// A nil tracer reports zero losses rather than panicking.
	var nilT *Tracer
	if nilT.EvictedTraces() != 0 || nilT.StoredTraces() != 0 {
		t.Fatal("nil tracer reports losses")
	}
}
