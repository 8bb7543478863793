package telemetry

import (
	"container/list"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier. The zero value means "no
// trace". Binary IDs keep the span hot path allocation-free; the hex
// string form appears only at the edges (JSON, HTTP, Status).
type TraceID [16]byte

// IsZero reports whether the ID is the "no trace" sentinel.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as lowercase hex ("" for the zero ID).
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	var dst [32]byte
	hex.Encode(dst[:], id[:])
	return string(dst[:])
}

// MarshalJSON renders the hex form ("" for zero).
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the hex form ("" or null yields the zero ID).
func (id *TraceID) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == "null" || s == `""` {
		*id = TraceID{}
		return nil
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	parsed, ok := ParseTraceID(s)
	if !ok {
		*id = TraceID{}
		return nil
	}
	*id = parsed
	return nil
}

// ParseTraceID decodes the 32-hex-char string form of a trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, true
}

// SpanID is a 64-bit span identifier; zero means "no span".
type SpanID [8]byte

// IsZero reports whether the ID is the "no span" sentinel.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as lowercase hex ("" for the zero ID).
func (id SpanID) String() string {
	if id.IsZero() {
		return ""
	}
	var dst [16]byte
	hex.Encode(dst[:], id[:])
	return string(dst[:])
}

// MarshalJSON renders the hex form ("" for zero).
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the hex form ("" or null yields the zero ID).
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == "null" || s == `""` {
		*id = SpanID{}
		return nil
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	var parsed SpanID
	if len(s) != 2*len(parsed) {
		*id = SpanID{}
		return nil
	}
	if _, err := hex.Decode(parsed[:], []byte(s)); err != nil {
		*id = SpanID{}
		return nil
	}
	*id = parsed
	return nil
}

// newTraceID returns a fresh non-zero trace ID. Span IDs need
// uniqueness, not secrecy, so the runtime-sharded generator beats
// crypto/rand's per-call syscall on the span-creation hot path.
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

// newSpanID returns a fresh non-zero span ID.
func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// SpanContext identifies a span for explicit propagation — through bus
// messages, across pipeline stages, between goroutines. The zero value
// is "no trace" and produces no spans downstream.
type SpanContext struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"`
}

// Valid reports whether the context names a real trace.
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// SpanRecord is one completed span as stored and served by
// GET /traces/{id}. IDs are hex strings here — the record is the wire
// and storage form, converted once per span at trace retention time.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// spanAttrCap is the per-span attribute slab size. The widest span in
// the pipeline today carries 3 attrs; overflow is counted, not stored.
const spanAttrCap = 8

// attrKV is one slot of a span's preallocated attribute slab.
type attrKV struct{ k, v string }

// Span is an in-flight operation. Obtain from a Tracer, call End when
// the operation finishes; only ended spans reach the store. A nil *Span
// is valid and does nothing, so callers never nil-check.
//
// Spans are pooled: once ended AND their trace finished, the object is
// recycled. Capture Context() before End (all
// production call sites do) and never touch a span after End.
type Span struct {
	tracer *Tracer

	mu       sync.Mutex
	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	name     string
	start    time.Time
	end      time.Time
	attrs    [spanAttrCap]attrKV
	nattrs   int
	errored  bool
	ended    bool

	next *Span // intrusive list link while buffered in a pending trace
}

// Context returns the span's identity for propagation. Capture it
// before End (spans are pooled after retention).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// SetAttr attaches a key/value label (no PHI — stage names, IDs,
// outcomes only, same rule as the audit log). Setting "error" marks the
// whole trace as errored for the tail-sampling keep decision. Calls
// after End are dropped.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	if k == "error" {
		s.errored = true
	}
	for i := 0; i < s.nattrs; i++ {
		if s.attrs[i].k == k {
			s.attrs[i].v = v
			s.mu.Unlock()
			return
		}
	}
	if s.nattrs < spanAttrCap {
		s.attrs[s.nattrs] = attrKV{k, v}
		s.nattrs++
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.tracer.attrDropped.Add(1)
}

// End completes the span and records it. Safe to call more than once;
// only the first call records.
func (s *Span) End() { s.EndAt(time.Time{}) }

// EndAt completes the span with an explicit end time (zero = now).
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.mu.Unlock()
	s.tracer.record(s)
}

// toRecord converts the span to its storage form. traceID is the
// shared hex string of the whole trace so sibling spans don't each
// re-encode it.
func (s *Span) toRecord(traceID string) SpanRecord {
	rec := SpanRecord{
		TraceID:  traceID,
		SpanID:   s.spanID.String(),
		Name:     s.name,
		Start:    s.start,
		Duration: s.end.Sub(s.start),
	}
	if !s.parentID.IsZero() {
		rec.ParentID = s.parentID.String()
	}
	if s.nattrs > 0 {
		rec.Attrs = make(map[string]string, s.nattrs)
		for i := 0; i < s.nattrs; i++ {
			rec.Attrs[s.attrs[i].k] = s.attrs[i].v
		}
	}
	return rec
}

// retainedTrace is one finished trace in the retention store.
type retainedTrace struct {
	key      TraceID
	id       string // hex form, shared by every span record
	rootName string
	wall     time.Duration
	pinned   bool // errored or slow-K — lives in pinnedOrder
	elem     *list.Element
	spans    []SpanRecord
}

// Tracer creates spans and keeps a bounded in-memory store of completed
// traces. It tail-samples: spans buffer per trace until the trace
// finishes, then the Policy decides retention. A nil *Tracer is valid
// and creates nothing.
type Tracer struct {
	maxTraces int
	maxPerTr  int

	// clock is the injected time source (hot paths must not call the
	// real clock directly — CI lints for it). Atomic so SetClock is
	// race-free against concurrent span starts.
	clock  atomic.Pointer[func() time.Time]
	policy atomic.Pointer[Policy]

	attrDropped atomic.Uint64

	mu       sync.Mutex
	retained map[TraceID]*retainedTrace
	// Retention order: unpinned traces evict before pinned ones, both
	// FIFO within their class.
	normalOrder *list.List // *retainedTrace, oldest first
	pinnedOrder *list.List // *retainedTrace, oldest first

	// Tail-sampling state.
	pending            map[TraceID]*pendingTrace
	pendHead, pendTail *pendingTrace // insertion-ordered DLL, oldest first
	slowHeaps          map[string][]slowEntry
	discardMemo        map[TraceID]struct{}
	discardRing        []TraceID
	discardIdx         int
	spanPool           sync.Pool
	pendPool           sync.Pool

	dropped     uint64 // spans past the per-trace cap
	evicted     uint64 // whole traces evicted past maxTraces
	finished    uint64 // traces that reached a tail-sampling decision
	discarded   uint64 // finished traces the policy declined to keep
	lateDropped uint64 // spans arriving after their trace was discarded
	pinnedErr   uint64 // traces kept because a span carried an error
	pinnedSlow  uint64 // traces kept by the slow-K heap
}

// Tracer store defaults: enough for a full E16 run (hundreds of uploads
// × ~15 spans) without unbounded growth under production traffic.
const (
	DefaultMaxTraces        = 2048
	DefaultMaxSpansPerTrace = 512
)

// NewTracer creates a tail-sampling tracer storing up to maxTraces
// traces of up to maxSpansPerTrace spans each (<=0 selects the
// defaults): spans buffer per trace until FinishTrace (or the
// pending-age sweep), then p decides retention.
func NewTracer(maxTraces, maxSpansPerTrace int, p Policy) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	memoSize := max(maxTraces, 1024)
	t := &Tracer{
		maxTraces:   maxTraces,
		maxPerTr:    maxSpansPerTrace,
		retained:    make(map[TraceID]*retainedTrace),
		normalOrder: list.New(),
		pinnedOrder: list.New(),
		pending:     make(map[TraceID]*pendingTrace),
		slowHeaps:   make(map[string][]slowEntry),
		discardMemo: make(map[TraceID]struct{}, memoSize),
		discardRing: make([]TraceID, memoSize),
	}
	t.spanPool.New = func() any { return new(Span) }
	t.pendPool.New = func() any { return new(pendingTrace) }
	clock := time.Now
	t.clock.Store(&clock)
	t.SetPolicy(p)
	return t
}

// SetClock injects the tracer's time source (tests; the pending-age
// sweep and span timestamps all flow through it).
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.clock.Store(&now)
}

func (t *Tracer) now() time.Time { return (*t.clock.Load())() }

// StartRoot opens a new trace and returns its root span.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, SpanContext{TraceID: newTraceID()}, t.now())
}

// StartSpan opens a child span under parent. An invalid parent starts a
// fresh root trace, so callers propagate contexts without branching.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	return t.StartSpanAt(name, parent, t.now())
}

// StartSpanAt opens a child span with an explicit start time — used for
// bus hops, whose span covers publish→receive and can only be created
// at the receiving end.
func (t *Tracer) StartSpanAt(name string, parent SpanContext, start time.Time) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		parent = SpanContext{TraceID: newTraceID()}
	}
	return t.start(name, parent, start)
}

func (t *Tracer) start(name string, parent SpanContext, start time.Time) *Span {
	s := t.spanPool.Get().(*Span)
	s.tracer = t
	s.traceID = parent.TraceID
	s.spanID = newSpanID()
	s.parentID = parent.SpanID
	s.name = name
	s.start = start
	return s
}

// recycleSpan resets a span field-wise (the struct embeds a mutex, so
// no wholesale copy) and returns it to the pool.
func (t *Tracer) recycleSpan(s *Span) {
	s.tracer = nil
	s.traceID = TraceID{}
	s.spanID = SpanID{}
	s.parentID = SpanID{}
	s.name = ""
	s.start = time.Time{}
	s.end = time.Time{}
	for i := 0; i < s.nattrs; i++ {
		s.attrs[i] = attrKV{}
	}
	s.nattrs = 0
	s.errored = false
	s.ended = false
	s.next = nil
	t.spanPool.Put(s)
}

// record buffers a completed span into its trace.
func (t *Tracer) record(s *Span) {
	if t == nil {
		return
	}
	p := t.policy.Load()
	now := t.now()
	t.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	t.recordTailLocked(p, s, now)
	t.sweepLocked(p, now)
	t.mu.Unlock()
}

// evictOneLocked removes the oldest evictable trace — unpinned first,
// pinned only when nothing else remains. Reports false on an empty
// store.
func (t *Tracer) evictOneLocked() bool {
	el := t.normalOrder.Front()
	fromPinned := false
	if el == nil {
		el = t.pinnedOrder.Front()
		fromPinned = true
	}
	if el == nil {
		return false
	}
	rt := el.Value.(*retainedTrace)
	if fromPinned {
		t.pinnedOrder.Remove(el)
		t.dropSlowEntryLocked(rt.rootName, rt.key)
	} else {
		t.normalOrder.Remove(el)
	}
	delete(t.retained, rt.key)
	t.memoDiscardLocked(rt.key)
	t.evicted++
	return true
}

// Trace returns the completed spans of a trace, sorted by start time
// (nil if unknown, discarded, or evicted). Pending traces — finished
// root not yet seen — are served from their buffer so in-flight work
// stays observable.
func (t *Tracer) Trace(id string) []SpanRecord {
	if t == nil {
		return nil
	}
	key, ok := ParseTraceID(id)
	if !ok {
		return nil
	}
	t.mu.Lock()
	var out []SpanRecord
	if rt, ok := t.retained[key]; ok {
		out = append([]SpanRecord(nil), rt.spans...)
	} else if pt, ok := t.pending[key]; ok {
		hexID := key.String()
		for s := pt.head; s != nil; s = s.next {
			out = append(out, s.toRecord(hexID))
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceIDs lists stored trace IDs: unpinned then pinned retained traces
// (oldest first within each class), then still-pending traces.
func (t *Tracer) TraceIDs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.retained)+len(t.pending))
	for el := t.normalOrder.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*retainedTrace).id)
	}
	for el := t.pinnedOrder.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*retainedTrace).id)
	}
	for pt := t.pendHead; pt != nil; pt = pt.next {
		out = append(out, pt.key.String())
	}
	return out
}

// Dropped reports spans discarded because their trace hit the per-trace
// span cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// EvictedTraces reports whole traces discarded because the store hit
// its trace cap. Together with Dropped it makes trace-completeness
// claims honest: a trace served by Trace may be missing siblings only
// if one of these counters moved (see experiment E16).
func (t *Tracer) EvictedTraces() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// StoredTraces reports how many traces the tracer currently holds
// (retained plus pending).
func (t *Tracer) StoredTraces() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.retained) + len(t.pending)
}

// StageStat is the aggregate of one span name across a span set.
type StageStat struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"` // sum of span durations
	Self  time.Duration `json:"self_ns"`  // Total minus time covered by child spans
	first time.Time
}

// MeanSelf returns the average self time per span.
func (s StageStat) MeanSelf() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Self / time.Duration(s.Count)
}

// StageBreakdown aggregates spans by name into per-stage totals and
// self times (duration minus direct children), ordered by each stage's
// earliest start — the pipeline order for a traced ingest run. Spans
// from multiple traces may be concatenated; span IDs keep parent links
// unambiguous.
func StageBreakdown(spans []SpanRecord) []StageStat {
	childTime := make(map[string]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.ParentID != "" {
			childTime[sp.ParentID] += sp.Duration
		}
	}
	agg := make(map[string]*StageStat)
	for _, sp := range spans {
		st := agg[sp.Name]
		if st == nil {
			st = &StageStat{Name: sp.Name, first: sp.Start}
			agg[sp.Name] = st
		}
		if sp.Start.Before(st.first) {
			st.first = sp.Start
		}
		st.Count++
		st.Total += sp.Duration
		self := sp.Duration - childTime[sp.SpanID]
		if self < 0 {
			self = 0
		}
		st.Self += self
	}
	out := make([]StageStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].first.Before(out[j].first) })
	return out
}
