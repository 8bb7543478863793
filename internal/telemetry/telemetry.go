package telemetry

import "context"

// Telemetry bundles the metrics registry and tracer one platform
// instance shares. A nil *Telemetry disables observability everywhere
// it is wired, at the cost of a nil check.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New creates an enabled Telemetry with default-sized stores and the
// default tail-sampling policy (keep everything, pin errors and the
// slowest roots).
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Tracer: NewTracer(0, 0, DefaultPolicy())}
}

// Registry returns the metrics registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Spans returns the tracer (nil when disabled).
func (t *Telemetry) Spans() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}

// ctxKey keys the span context stored in a context.Context.
type ctxKey struct{}

// ContextWithSpan stashes a span context for handlers further down an
// HTTP request chain (explicit propagation elsewhere; context-based
// only where the signature is fixed by net/http).
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext returns the stashed span context (zero if none).
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
