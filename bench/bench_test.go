package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"healthcloud/internal/hckrypto"
	"healthcloud/internal/rbac"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// One slice of interference from outside must not move a sliced
// quantile, where it would move the plain one.
func TestSlicedQuantileShrugsOffABurst(t *testing.T) {
	start := time.Unix(0, 0)
	end := start.Add(15 * time.Second)
	var samples []sample
	for i := 0; i < 1500; i++ { // 100/s: 300 per 3 s slice, so five slices carry a p95
		at := start.Add(time.Duration(i) * 10 * time.Millisecond)
		v := 10 + float64(i%10)
		if at.Sub(start) >= 6*time.Second && at.Sub(start) < 9*time.Second {
			v += 100 // the third slice is all burst
		}
		samples = append(samples, sample{at, v})
	}
	if k := slicesFor(len(samples), 0.95); k != 5 {
		t.Fatalf("slicesFor(1500, 0.95) = %d, want 5", k)
	}
	if k := slicesFor(399, 0.95); k != 1 {
		t.Errorf("slicesFor(399, 0.95) = %d, want 1: two slices would leave a p95 fewer than ten samples beyond", k)
	}
	if got := sliced(samples, start, end, 0.95); got != 19 {
		t.Errorf("sliced p95 = %v, want 19", got)
	}
	if plain := quantile(sorted(values(samples)), 0.95); plain < 100 {
		t.Errorf("plain p95 = %v: the burst should dominate it, or this test shows nothing", plain)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, ID: 1},
		{Name: "a", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "b", Start: 30, End: 60, ID: 3, Parent: 1},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, ID: 4, Parent: 1}, // runs past its parent
		{Name: "leaf", Start: 32, End: 35, ID: 5, Parent: 3},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the root's 100.
	if self[1] != 40 {
		t.Errorf("root self time = %d, want 40", self[1])
	}
	if self[2] != 30 || self[3] != 27 || self[5] != 3 {
		t.Errorf("self times a=%d b=%d leaf=%d, want 30 27 3", self[2], self[3], self[5])
	}
}

func TestSameSeedSameInputStream(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w, 7, 3*time.Second, 350)
		if b := streamHash(w, 7, 3*time.Second, 350); a != b {
			t.Errorf("%s: same seed gave different input streams", w.name)
		}
		if b := streamHash(w, 8, 3*time.Second, 350); a == b {
			t.Errorf("%s: different seeds gave the same input stream", w.name)
		}
	}
}

// An open-loop sender must charge a server stall to the requests that
// were due while it lasted, and show it as generator lag.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stallAt, stall = 20, 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if n == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"upload_id":"up-%d"}`, n)
	}))
	defer srv.Close()

	key, err := hckrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	data := generate(1, 0, 4, smallObs)
	inst := &instance{keys: map[string]hckrypto.SymmetricKey{}}
	for _, d := range data.devices {
		inst.keys[d] = key
	}
	e := &engine{inst: inst, data: data, t0: time.Now()}
	e.winStart, e.winEnd = e.t0, e.t0.Add(time.Second)
	s := &sender{e: e, c: newConn(srv.URL, "token"), pop: data.regular,
		sched: schedule(1, 600*time.Millisecond, 100, 0, []int{0, 1, 2, 3})}
	s.run(e.t0.Add(700 * time.Millisecond))

	if s.failed != 0 || len(s.uploads) != 60 {
		t.Fatalf("sent %d uploads with %d failures, want 60 and 0: %v", len(s.uploads), s.failed, s.problems)
	}
	lat := func(i int) time.Duration { return s.uploads[i].acked.Sub(s.uploads[i].start) }
	if lat(stallAt-1) < stall {
		t.Errorf("the stalled request took %v, want at least %v", lat(stallAt-1), stall)
	}
	// Requests due 10 and 100 ms into the stall waited out the rest of it.
	if got := lat(stallAt); got < 170*time.Millisecond {
		t.Errorf("the request due 10 ms into the stall took %v from its due time, want about 190ms", got)
	}
	if got := lat(stallAt + 9); got < 80*time.Millisecond {
		t.Errorf("the request due 100 ms into the stall took %v from its due time, want about 100ms", got)
	}
	if got := lat(5); got > 50*time.Millisecond {
		t.Errorf("a request before the stall took %v", got)
	}
	// 19 of 60 sends were late by 10..190 ms, so the p95 of lag sits in the stall.
	if p95 := quantile(sorted(s.lagMS), 0.95); p95 < 100 {
		t.Errorf("generator lag p95 = %.1f ms, want the stall to show (>100 ms)", p95)
	}
}

func TestVerdictAppliesDirectionBoundAndSpread(t *testing.T) {
	lower := bounded{Name: "latency", Better: "lower", Bound: 0.10}
	higher := bounded{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, tc := range []struct {
		b    bounded
		a, c []float64
		want string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(11.5), "regressed"},
		{lower, steady(10), steady(8), "improved"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(120), "improved"},
		{lower, []float64{8, 10, 12}, steady(11.5), "unresolved"},
	} {
		if _, got := verdict(tc.b, tc.a, tc.c); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.b.Name, tc.a, tc.c, got, tc.want)
		}
	}
}

// BENCHMARK.json is what the driver and later changes read; it must
// name exactly what this program emits.
func TestManifestNamesWhatTheProgramEmits(t *testing.T) {
	m, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q differs from program %q (or its why)", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []bounded, defs []metricDef, bounds bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: manifest lists %d metrics, program emits %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", kind, i, got.Name, got.Unit, d.name, d.unit)
			}
			if got.Better != "lower" && got.Better != "higher" {
				t.Errorf("%s: better = %q", got.Name, got.Better)
			}
			if bounds && (got.Bound <= 0 || got.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// TestSmoke drives every workload through both passes with two-second
// windows: no bounds, but the whole correctness gate, so the benchmark
// cannot rot between the changes that rely on it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the platform eight times")
	}
	idp, err := rbac.NewIdentityProvider("bench-sso")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			tmp := t.TempDir()
			res, err := runWorkload(w, runOpts{seed: 3, window: 2 * time.Second, warmup: time.Second / 2,
				cross: 2 * time.Second, crossWarmup: time.Second / 2,
				setups: 1, reopens: 1, trace: traced, tmp: tmp, out: tmp, idp: idp})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correctness gate failed (%d of %d): %v", w.name, traced, res.Failed, res.Attempted, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if data, err := os.ReadFile(filepath.Join(tmp, "trace-"+w.name+".json")); err != nil || !bytes.Contains(data, []byte(`"ledger.submit"`)) {
					t.Errorf("%s: trace file missing or without the layer walk: %v", w.name, err)
				}
			}
			var line bytes.Buffer
			line.WriteString(res.line())
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not a number", w.name, traced, d.name)
				}
				if !bytes.Contains(line.Bytes(), []byte(`"`+d.name+`"`)) {
					t.Errorf("%s traced=%v: result line lacks %s", w.name, traced, d.name)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, want exactly %d", w.name, traced, len(res.Metrics), len(defs))
			}
		}
	}
}
