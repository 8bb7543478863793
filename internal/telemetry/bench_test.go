package telemetry

import (
	"testing"
	"time"
)

func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer(0, 0, DefaultPolicy())
	root := tr.StartRoot("bench")
	parent := root.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("stage", parent)
		sp.SetAttr("k", "v")
		sp.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Millisecond)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkStartRoot(b *testing.B) {
	tr := NewTracer(0, 0, DefaultPolicy())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot("bench")
		id := sp.Context().TraceID
		sp.End()
		tr.FinishTrace(id)
	}
}
