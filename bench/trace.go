package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bench-side measurement around a call into the platform.
// Times are nanoseconds since the recorder's origin. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Self   int64  `json:"self_ns"` // filled when the trace is written
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its ID for children to name.
func (r *recorder) add(name string, start, end time.Time, parent int32, op int64) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.origin).Nanoseconds(),
		End: end.Sub(r.origin).Nanoseconds(), ID: id, Parent: parent, Op: op})
	r.mu.Unlock()
	return id
}

// reserve allocates a span whose end is not known yet (a parent that
// must exist before its children); finish closes it.
func (r *recorder) reserve(name string, start time.Time, op int64) int32 {
	return r.add(name, start, start, 0, op)
}

func (r *recorder) finish(id int32, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.origin).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// withSelfTimes fills every span's Self.
func withSelfTimes(spans []span) []span {
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = self[spans[i].ID]
	}
	return spans
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by the union of its children.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// durationsUS groups span durations by name, in microseconds.
func durationsUS(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
