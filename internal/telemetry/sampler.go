package telemetry

import (
	"math/rand/v2"
	"sort"
	"time"
)

// Policy is the tail-sampling retention policy, applied when a trace
// finishes (FinishTrace, or the pending-age sweep for abandoned
// traces): errored traces are always kept, the rolling top-K slowest
// per root-span name are always kept, and the rest are kept with
// probability SampleRate. This is Canopy-style tail-based sampling —
// the keep decision sees the whole trace, so under heavy load the rare
// slow/error traces survive the flood of fast ones that evicts them
// from a FIFO store (experiment E23).
type Policy struct {
	// SampleRate is the keep probability for unremarkable traces
	// (clamped to [0,1]; 1 keeps everything — the default).
	SampleRate float64
	// SlowK pins the K slowest traces per root span name (<=0 disables
	// the slow heap; DefaultPolicy uses 8).
	SlowK int
	// MaxPending bounds how many unfinished traces may buffer at once;
	// past it the oldest pending trace is force-finished (default 4096).
	MaxPending int
	// MaxPendingAge force-finishes traces whose root never finished —
	// crashed workers, dropped messages (default 30s).
	MaxPendingAge time.Duration
}

// DefaultPolicy keeps everything except what the store can't hold:
// SampleRate 1, SlowK 8. Policy{SampleRate: 1} with no slow heap keeps
// the newest MaxTraces traces, evicting oldest first.
func DefaultPolicy() Policy {
	return Policy{SampleRate: 1, SlowK: 8, MaxPending: 4096, MaxPendingAge: 30 * time.Second}
}

func (p Policy) withDefaults() Policy {
	if p.SampleRate < 0 {
		p.SampleRate = 0
	}
	if p.SampleRate > 1 {
		p.SampleRate = 1
	}
	if p.SlowK < 0 {
		p.SlowK = 0
	}
	if p.MaxPending <= 0 {
		p.MaxPending = 4096
	}
	if p.MaxPendingAge <= 0 {
		p.MaxPendingAge = 30 * time.Second
	}
	return p
}

// SetPolicy replaces the tail-sampling policy. Already-retained traces
// are untouched.
func (t *Tracer) SetPolicy(p Policy) {
	if t == nil {
		return
	}
	p = p.withDefaults()
	t.policy.Store(&p)
}

// pendingTrace buffers one unfinished trace's ended spans (intrusive
// singly-linked list — no per-span container allocations).
type pendingTrace struct {
	key      TraceID
	head     *Span
	tail     *Span
	count    int
	rootName string
	errored  bool
	minStart time.Time
	maxEnd   time.Time
	created  time.Time

	prev, next *pendingTrace // age-ordered DLL, oldest first
}

// slowEntry is one occupant of a per-root-name slow-K heap.
type slowEntry struct {
	id   TraceID
	wall time.Duration
}

// recordTailLocked buffers one ended span into its pending trace,
// creating the buffer on first span. Spans for already-retained traces
// append directly (late arrivals after FinishTrace); spans for
// already-discarded traces are dropped.
func (t *Tracer) recordTailLocked(p *Policy, s *Span, now time.Time) {
	if rt, ok := t.retained[s.traceID]; ok {
		if len(rt.spans) >= t.maxPerTr {
			t.dropped++
		} else {
			rt.spans = append(rt.spans, s.toRecord(rt.id))
		}
		t.recycleSpan(s)
		return
	}
	if _, ok := t.discardMemo[s.traceID]; ok {
		t.lateDropped++
		t.recycleSpan(s)
		return
	}
	pt, ok := t.pending[s.traceID]
	if !ok {
		if len(t.pending) >= p.MaxPending && t.pendHead != nil {
			t.finalizeLocked(p, t.pendHead)
		}
		pt = t.pendPool.Get().(*pendingTrace)
		pt.key = s.traceID
		pt.created = now
		pt.minStart = s.start
		pt.maxEnd = s.end
		t.pending[s.traceID] = pt
		// Link at the DLL tail (newest).
		pt.prev = t.pendTail
		if t.pendTail != nil {
			t.pendTail.next = pt
		} else {
			t.pendHead = pt
		}
		t.pendTail = pt
	}
	if pt.count >= t.maxPerTr {
		t.dropped++
		t.recycleSpan(s)
		return
	}
	if pt.head == nil {
		pt.head = s
	} else {
		pt.tail.next = s
	}
	pt.tail = s
	pt.count++
	if s.parentID.IsZero() {
		pt.rootName = s.name
	}
	if s.errored {
		pt.errored = true
	}
	if s.start.Before(pt.minStart) {
		pt.minStart = s.start
	}
	if s.end.After(pt.maxEnd) {
		pt.maxEnd = s.end
	}
}

// sweepLocked force-finishes pending traces older than MaxPendingAge
// (at most two per call — O(1) amortized against the record rate).
func (t *Tracer) sweepLocked(p *Policy, now time.Time) {
	for i := 0; i < 2; i++ {
		pt := t.pendHead
		if pt == nil || now.Sub(pt.created) < p.MaxPendingAge {
			return
		}
		t.finalizeLocked(p, pt)
	}
}

// FinishTrace marks a trace complete and applies the retention policy.
// Call it where a trace's lifecycle truly ends — the ingest worker's
// ack, an HTTP handler's return, the watchdog tick. No-op for the zero
// ID and for traces with no buffered spans.
func (t *Tracer) FinishTrace(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	p := t.policy.Load()
	t.mu.Lock()
	if pt, ok := t.pending[id]; ok {
		t.finalizeLocked(p, pt)
	}
	t.mu.Unlock()
}

// FlushPending finalizes every pending trace immediately — tests and
// shutdown paths that want all retention decisions made now.
func (t *Tracer) FlushPending() {
	if t == nil {
		return
	}
	p := t.policy.Load()
	t.mu.Lock()
	for t.pendHead != nil {
		t.finalizeLocked(p, t.pendHead)
	}
	t.mu.Unlock()
}

// finalizeLocked applies the retention policy to one pending trace.
func (t *Tracer) finalizeLocked(p *Policy, pt *pendingTrace) {
	delete(t.pending, pt.key)
	t.unlinkPendingLocked(pt)
	t.finished++

	wall := pt.maxEnd.Sub(pt.minStart)
	if wall < 0 {
		wall = 0
	}
	pinned := false
	switch {
	case pt.errored:
		pinned = true
		t.pinnedErr++
	case t.slowKeepLocked(p, pt.rootName, pt.key, wall):
		pinned = true
		t.pinnedSlow++
	default:
		keep := p.SampleRate >= 1 || rand.Float64() < p.SampleRate
		if !keep {
			t.discarded++
			t.memoDiscardLocked(pt.key)
			for s := pt.head; s != nil; {
				next := s.next
				t.recycleSpan(s)
				s = next
			}
			t.recyclePending(pt)
			return
		}
	}

	id := pt.key.String()
	rt := &retainedTrace{
		key:      pt.key,
		id:       id,
		rootName: pt.rootName,
		wall:     wall,
		pinned:   pinned,
		spans:    make([]SpanRecord, 0, pt.count),
	}
	for s := pt.head; s != nil; {
		next := s.next
		rt.spans = append(rt.spans, s.toRecord(id))
		t.recycleSpan(s)
		s = next
	}
	sort.Slice(rt.spans, func(i, j int) bool { return rt.spans[i].Start.Before(rt.spans[j].Start) })
	if pinned {
		rt.elem = t.pinnedOrder.PushBack(rt)
	} else {
		rt.elem = t.normalOrder.PushBack(rt)
	}
	t.retained[pt.key] = rt
	t.recyclePending(pt)
	for len(t.retained) > t.maxTraces {
		if !t.evictOneLocked() {
			break
		}
	}
}

// slowKeepLocked decides whether wall earns a slot in rootName's
// slow-K heap, displacing (and demoting) the current minimum if so.
func (t *Tracer) slowKeepLocked(p *Policy, rootName string, id TraceID, wall time.Duration) bool {
	if p.SlowK <= 0 || rootName == "" {
		return false
	}
	heap := t.slowHeaps[rootName]
	if len(heap) < p.SlowK {
		t.slowHeaps[rootName] = append(heap, slowEntry{id: id, wall: wall})
		return true
	}
	minIdx := 0
	for i := 1; i < len(heap); i++ {
		if heap[i].wall < heap[minIdx].wall {
			minIdx = i
		}
	}
	if wall <= heap[minIdx].wall {
		return false
	}
	t.demoteLocked(heap[minIdx].id)
	heap[minIdx] = slowEntry{id: id, wall: wall}
	return true
}

// demoteLocked moves a formerly slow-pinned trace to the unpinned
// eviction class (it stays retained until capacity pressure).
func (t *Tracer) demoteLocked(id TraceID) {
	rt, ok := t.retained[id]
	if !ok || !rt.pinned {
		return
	}
	t.pinnedOrder.Remove(rt.elem)
	rt.pinned = false
	rt.elem = t.normalOrder.PushBack(rt)
}

// dropSlowEntryLocked removes an evicted trace's slow-heap slot so a
// stale minimum can't block future pins.
func (t *Tracer) dropSlowEntryLocked(rootName string, id TraceID) {
	heap, ok := t.slowHeaps[rootName]
	if !ok {
		return
	}
	for i := range heap {
		if heap[i].id == id {
			heap[i] = heap[len(heap)-1]
			t.slowHeaps[rootName] = heap[:len(heap)-1]
			return
		}
	}
}

// memoDiscardLocked remembers a discarded/evicted trace ID (bounded
// ring) so straggler spans are dropped instead of resurrecting a
// one-span ghost of a trace the policy already rejected.
func (t *Tracer) memoDiscardLocked(id TraceID) {
	old := t.discardRing[t.discardIdx]
	if !old.IsZero() {
		delete(t.discardMemo, old)
	}
	t.discardRing[t.discardIdx] = id
	t.discardMemo[id] = struct{}{}
	t.discardIdx = (t.discardIdx + 1) % len(t.discardRing)
}

func (t *Tracer) unlinkPendingLocked(pt *pendingTrace) {
	if pt.prev != nil {
		pt.prev.next = pt.next
	} else {
		t.pendHead = pt.next
	}
	if pt.next != nil {
		pt.next.prev = pt.prev
	} else {
		t.pendTail = pt.prev
	}
	pt.prev, pt.next = nil, nil
}

func (t *Tracer) recyclePending(pt *pendingTrace) {
	*pt = pendingTrace{}
	t.pendPool.Put(pt)
}

// TracerStats is a point-in-time copy of the tracer's retention
// counters.
type TracerStats struct {
	Retained         int    `json:"retained"`
	Pinned           int    `json:"pinned"`
	Pending          int    `json:"pending"`
	Finished         uint64 `json:"finished"`
	Discarded        uint64 `json:"discarded"`
	Evicted          uint64 `json:"evicted"`
	PinnedErrors     uint64 `json:"pinned_errors"`
	PinnedSlow       uint64 `json:"pinned_slow"`
	DroppedSpans     uint64 `json:"dropped_spans"`
	LateDroppedSpans uint64 `json:"late_dropped_spans"`
	DroppedAttrs     uint64 `json:"dropped_attrs"`
}

// Stats returns the tracer's retention counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	st := TracerStats{
		Retained:         len(t.retained),
		Pinned:           t.pinnedOrder.Len(),
		Pending:          len(t.pending),
		Finished:         t.finished,
		Discarded:        t.discarded,
		Evicted:          t.evicted,
		PinnedErrors:     t.pinnedErr,
		PinnedSlow:       t.pinnedSlow,
		DroppedSpans:     t.dropped,
		LateDroppedSpans: t.lateDropped,
	}
	t.mu.Unlock()
	st.DroppedAttrs = t.attrDropped.Load()
	return st
}

// TraceSummary is the GET /traces/summary body: store-wide per-stage
// aggregation and merged critical-path attribution across every
// retained trace.
type TraceSummary struct {
	Traces              int           `json:"traces"`
	Pending             int           `json:"pending"`
	Stats               TracerStats   `json:"stats"`
	Stages              []StageStat   `json:"stages"`
	CriticalPath        []PathSegment `json:"critical_path,omitempty"`
	CriticalPathSkipped int           `json:"critical_path_skipped,omitempty"`
}

// Summary aggregates every retained trace: per-stage totals plus a
// merged critical path (per-stage self-time on the deepest-active
// span timeline, summed across traces).
func (t *Tracer) Summary() TraceSummary {
	if t == nil {
		return TraceSummary{}
	}
	t.mu.Lock()
	// Snapshot slice headers only: retained span slices are append-only
	// past their captured length, so reading them outside the lock is
	// safe.
	traces := make([][]SpanRecord, 0, len(t.retained))
	for _, rt := range t.retained {
		traces = append(traces, rt.spans)
	}
	t.mu.Unlock()

	sum := TraceSummary{Stats: t.Stats()}
	sum.Traces = sum.Stats.Retained
	sum.Pending = sum.Stats.Pending

	var all []SpanRecord
	critSelf := make(map[string]time.Duration)
	var critTotal time.Duration
	for _, spans := range traces {
		all = append(all, spans...)
		if len(spans) > criticalPathSpanCap {
			sum.CriticalPathSkipped++
			continue
		}
		for _, seg := range CriticalPath(spans) {
			critSelf[seg.Name] += seg.Self
			critTotal += seg.Self
		}
	}
	sum.Stages = StageBreakdown(all)
	if len(critSelf) > 0 {
		sum.CriticalPath = make([]PathSegment, 0, len(critSelf))
		for name, self := range critSelf {
			seg := PathSegment{Name: name, Self: self}
			if critTotal > 0 {
				seg.Share = float64(self) / float64(critTotal)
			}
			sum.CriticalPath = append(sum.CriticalPath, seg)
		}
		sort.Slice(sum.CriticalPath, func(i, j int) bool {
			if sum.CriticalPath[i].Self != sum.CriticalPath[j].Self {
				return sum.CriticalPath[i].Self > sum.CriticalPath[j].Self
			}
			return sum.CriticalPath[i].Name < sum.CriticalPath[j].Name
		})
	}
	return sum
}
