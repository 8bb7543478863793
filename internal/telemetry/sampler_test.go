package telemetry

import (
	"sync"
	"testing"
	"time"
)

// finishOne runs a complete mini-trace (root + one child) through tr
// and finishes it, returning the trace ID's hex form.
func finishOne(tr *Tracer, rootName string) string {
	root := tr.StartRoot(rootName)
	sc := root.Context()
	child := tr.StartSpan("stage", sc)
	child.End()
	root.End()
	tr.FinishTrace(sc.TraceID)
	return sc.TraceID.String()
}

func TestTailRetainsErrorTraces(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 0, SlowK: 0})
	root := tr.StartRoot("op")
	sc := root.Context()
	child := tr.StartSpan("stage", sc)
	child.SetAttr("error", "boom")
	child.End()
	root.End()
	tr.FinishTrace(sc.TraceID)

	if got := tr.Trace(sc.TraceID.String()); len(got) != 2 {
		t.Fatalf("errored trace spans = %d, want 2 (always kept)", len(got))
	}
	st := tr.Stats()
	if st.PinnedErrors != 1 {
		t.Fatalf("PinnedErrors = %d, want 1", st.PinnedErrors)
	}

	// A clean trace under SampleRate 0 and SlowK 0 is discarded.
	id := finishOne(tr, "op")
	if got := tr.Trace(id); got != nil {
		t.Fatalf("clean trace retained under SampleRate 0: %v", got)
	}
	if st := tr.Stats(); st.Discarded != 1 {
		t.Fatalf("Discarded = %d, want 1", st.Discarded)
	}
}

func TestTailPinsTopKSlowest(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 0, SlowK: 2})
	base := time.Unix(1000, 0)

	// Three traces of 10ms, 30ms, 20ms wall: K=2 keeps 30ms and 20ms.
	mk := func(wall time.Duration) string {
		root := tr.StartSpanAt("op", SpanContext{}, base)
		sc := root.Context()
		root.EndAt(base.Add(wall))
		tr.FinishTrace(sc.TraceID)
		return sc.TraceID.String()
	}
	// The first two fill the heap regardless of wall time; the third
	// must displace the 10ms one.
	id10 := mk(10 * time.Millisecond)
	id30 := mk(30 * time.Millisecond)
	id20 := mk(20 * time.Millisecond)

	if tr.Trace(id30) == nil || tr.Trace(id20) == nil {
		t.Fatal("slowest traces not retained")
	}
	// The displaced 10ms trace was demoted to the unpinned class — it
	// stays retained (store not full) but is no longer pinned.
	if tr.Trace(id10) == nil {
		t.Fatal("demoted trace evicted without capacity pressure")
	}
	st := tr.Stats()
	if st.Pinned != 2 {
		t.Fatalf("Pinned = %d, want 2", st.Pinned)
	}
	if st.PinnedSlow != 3 {
		t.Fatalf("PinnedSlow = %d, want 3 (two fills + one displacement)", st.PinnedSlow)
	}

	// A faster-than-minimum trace must not displace anyone.
	idFast := mk(time.Millisecond)
	if tr.Trace(idFast) != nil {
		t.Fatal("fast trace retained under SampleRate 0")
	}
	if got := tr.Stats().Pinned; got != 2 {
		t.Fatalf("Pinned after fast trace = %d, want 2", got)
	}
}

func TestTailProbabilisticSample(t *testing.T) {
	// SampleRate 1 keeps everything.
	keep := NewTracer(0, 0, Policy{SampleRate: 1, SlowK: 0})
	for i := 0; i < 50; i++ {
		if id := finishOne(keep, "op"); keep.Trace(id) == nil {
			t.Fatal("SampleRate 1 discarded a trace")
		}
	}
	// SampleRate 0 discards everything unremarkable.
	drop := NewTracer(0, 0, Policy{SampleRate: 0, SlowK: 0})
	for i := 0; i < 50; i++ {
		if id := finishOne(drop, "op"); drop.Trace(id) != nil {
			t.Fatal("SampleRate 0 retained a clean trace")
		}
	}
	if st := drop.Stats(); st.Discarded != 50 || st.Finished != 50 {
		t.Fatalf("stats = %+v, want 50 finished / 50 discarded", st)
	}
}

func TestTailLateSpansAppendToRetained(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 1, SlowK: 0})
	root := tr.StartRoot("op")
	sc := root.Context()
	root.End()
	tr.FinishTrace(sc.TraceID)
	if got := len(tr.Trace(sc.TraceID.String())); got != 1 {
		t.Fatalf("retained spans = %d, want 1", got)
	}

	// A straggler ending after FinishTrace lands in the retained trace.
	late := tr.StartSpan("straggler", sc)
	late.End()
	if got := len(tr.Trace(sc.TraceID.String())); got != 2 {
		t.Fatalf("after late span: %d spans, want 2", got)
	}
}

func TestTailLateSpansAfterDiscardAreDropped(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 0, SlowK: 0})
	root := tr.StartRoot("op")
	sc := root.Context()
	root.End()
	tr.FinishTrace(sc.TraceID)

	late := tr.StartSpan("straggler", sc)
	late.End()
	if tr.Trace(sc.TraceID.String()) != nil {
		t.Fatal("late span resurrected a discarded trace")
	}
	if st := tr.Stats(); st.LateDroppedSpans != 1 {
		t.Fatalf("LateDroppedSpans = %d, want 1", st.LateDroppedSpans)
	}
}

func TestTailPendingServedBeforeFinish(t *testing.T) {
	tr := NewTracer(0, 0, DefaultPolicy())
	root := tr.StartRoot("op")
	sc := root.Context()
	child := tr.StartSpan("stage", sc)
	child.End()
	// Root not finished: the trace is pending but still readable.
	spans := tr.Trace(sc.TraceID.String())
	if len(spans) != 1 || spans[0].Name != "stage" {
		t.Fatalf("pending trace spans = %+v, want the ended child", spans)
	}
	if tr.StoredTraces() != 1 {
		t.Fatalf("StoredTraces = %d, want 1 (pending counts)", tr.StoredTraces())
	}
	root.End()
	tr.FinishTrace(sc.TraceID)
	if got := len(tr.Trace(sc.TraceID.String())); got != 2 {
		t.Fatalf("after finish: %d spans, want 2", got)
	}
}

func TestTailPendingAgeFinalize(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 1, MaxPendingAge: time.Second})
	now := time.Unix(2000, 0)
	tr.SetClock(func() time.Time { return now })

	orphan := tr.StartRoot("abandoned")
	osc := orphan.Context()
	orphan.End() // ended root, but FinishTrace never called

	// Advance past MaxPendingAge; the next record sweeps the orphan.
	now = now.Add(2 * time.Second)
	finishOne(tr, "op")

	if st := tr.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d, want 0 (age sweep)", st.Pending)
	}
	if tr.Trace(osc.TraceID.String()) == nil {
		t.Fatal("age-swept trace not retained under SampleRate 1")
	}
}

func TestTailPendingCapForcesFinalize(t *testing.T) {
	tr := NewTracer(0, 0, Policy{SampleRate: 1, MaxPending: 4})
	var scs []SpanContext
	for i := 0; i < 6; i++ {
		root := tr.StartRoot("op")
		scs = append(scs, root.Context())
		root.End() // pending: never finished explicitly
	}
	st := tr.Stats()
	if st.Pending > 4 {
		t.Fatalf("Pending = %d, want <= MaxPending 4", st.Pending)
	}
	// Force-finalized traces were kept (SampleRate 1), not lost.
	for _, sc := range scs {
		if tr.Trace(sc.TraceID.String()) == nil {
			t.Fatalf("trace %s lost to the pending cap", sc.TraceID)
		}
	}
}

func TestFinishTraceIdempotentAndNilSafe(t *testing.T) {
	var nilT *Tracer
	nilT.FinishTrace(TraceID{})
	nilT.FlushPending()

	tr := NewTracer(0, 0, DefaultPolicy())
	tr.FinishTrace(TraceID{}) // zero ID: no-op
	id := finishOne(tr, "op")
	key, _ := ParseTraceID(id)
	tr.FinishTrace(key) // second finish: no-op
	if st := tr.Stats(); st.Finished != 1 {
		t.Fatalf("Finished = %d, want 1", st.Finished)
	}
}

// TestTailEvictionPrefersUnpinned fills the store past its cap and
// checks pinned (errored) traces survive while unpinned ones evict.
func TestTailEvictionPrefersUnpinned(t *testing.T) {
	tr := NewTracer(4, 0, Policy{SampleRate: 1, SlowK: 0})
	root := tr.StartRoot("op")
	esc := root.Context()
	root.SetAttr("error", "boom")
	root.End()
	tr.FinishTrace(esc.TraceID)

	for i := 0; i < 8; i++ {
		finishOne(tr, "op")
	}
	if tr.StoredTraces() > 4 {
		t.Fatalf("StoredTraces = %d, want <= 4", tr.StoredTraces())
	}
	if tr.Trace(esc.TraceID.String()) == nil {
		t.Fatal("pinned errored trace evicted while unpinned traces existed")
	}
	if st := tr.Stats(); st.Evicted == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

// TestTracerConcurrent hammers a keep-newest and a sampling policy from
// concurrent writers — the CI -race stress target for the retention
// machinery.
func TestTracerConcurrent(t *testing.T) {
	for mode, p := range map[string]Policy{
		"keep-newest":  {SampleRate: 1},
		"tail-sampled": {SampleRate: 0.5, SlowK: 4, MaxPending: 128},
	} {
		t.Run(mode, func(t *testing.T) {
			tr := NewTracer(64, 0, p)
			const workers = 16
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						root := tr.StartRoot("op")
						sc := root.Context()
						child := tr.StartSpan("stage", sc)
						child.SetAttr("k", "v")
						if i%17 == 0 {
							child.SetAttr("error", "synthetic")
						}
						child.End()
						root.End()
						tr.FinishTrace(sc.TraceID)
						if i%31 == 0 {
							tr.Trace(sc.TraceID.String())
							tr.TraceIDs()
							tr.Stats()
						}
					}
				}(w)
			}
			wg.Wait()
			tr.FlushPending()
			if tr.StoredTraces() > 64+1 {
				t.Fatalf("store exceeded cap: %d", tr.StoredTraces())
			}
			if st := tr.Stats(); st.Finished == 0 || st.Pending != 0 {
				t.Fatalf("stats after flush: %+v", st)
			}
		})
	}
}

// TestSpanZeroAlloc is the ingest-hot-path allocation guard (the
// tracer analog of TestEd25519VerifyZeroAlloc): span start, annotate,
// finish, and the whole-trace discard path must not allocate once the
// pools reach steady state.
func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTracer(64, 0, Policy{SampleRate: 0, SlowK: 0})
	miniTrace := func() {
		root := tr.StartRoot("ingest.upload")
		sc := root.Context()
		child := tr.StartSpan("ingest.process", sc)
		child.SetAttr("outcome", "ok")
		child.End()
		root.End()
		tr.FinishTrace(sc.TraceID)
	}
	// Warm the span/pending pools and cycle the discard-memo ring to
	// its steady-state capacity.
	for i := 0; i < 3000; i++ {
		miniTrace()
	}
	if avg := testing.AllocsPerRun(1000, miniTrace); avg != 0 {
		t.Fatalf("span lifecycle allocates %.1f allocs/op, want 0", avg)
	}
}
