package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"healthcloud/internal/ingest"
	"healthcloud/internal/rbac"
)

// runOpts are the knobs of one invocation.
type runOpts struct {
	seed        int64
	window      time.Duration // the timed window
	warmup      time.Duration // untimed, same traffic, before the window
	setups      int           // how many times set-up is repeated (median reported)
	reopens     int           // likewise for reopen, while reopen is quick
	cross       time.Duration // the cross-check after the window
	crossWarmup time.Duration
	trace       bool   // the traced pass: bench-side spans, the layer walk, per-layer metrics
	tmp         string // scratch root inside the checkout, removed by the caller
	out         string // where trace files go
	idp         *rbac.IdentityProvider
}

// measured is one metric of one run; N is the sample count behind a
// timing (0 for counts and ratios).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Problems  []string            `json:"problems,omitempty"`
	InputHash string              `json:"input_hash"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, value float64, n int) {
	r.Metrics[name] = measured{Value: value, Unit: unitOf(name), N: n}
}

// timing reports a latency sample as its quantile q in the metric's unit
// (samples are milliseconds for end-to-end metrics, microseconds per layer).
func (r *result) timing(name string, q float64, samples []float64) {
	r.set(name, quantile(sorted(samples), q), len(samples))
}

// runWorkload sets the platform up, drives one workload through warm-up
// and the timed window, measures, and checks what came out.
func runWorkload(w *workload, o runOpts) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, Correct: true, Metrics: make(map[string]measured)}
	data := generate(o.seed, w.preload, w.patients, w.observations)
	// Every DataDir of this run lives and dies under one directory of its own.
	work, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	if o.trace {
		if err := timeEmptyPlatform(res, filepath.Join(work, "empty")); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated: each round is a fresh platform on a fresh
	// directory; the last one is the one the run uses.
	var inst *instance
	var c1 *conn
	var pre []upload
	var dir string
	var setupS []float64
	for round := 0; round < o.setups; round++ {
		if inst != nil {
			c1.close()
			inst.close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(work, fmt.Sprintf("data-%d", round))
		start := time.Now()
		if inst, err = boot(dir); err != nil {
			return nil, err
		}
		token, err := inst.login(o.idp)
		if err != nil {
			inst.close()
			return nil, err
		}
		c1 = newConn(inst.url, token)
		if pre, err = inst.provision(c1, data); err != nil {
			inst.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() { // inst is reassigned at reopen; close whichever is live
		if inst != nil {
			inst.close()
		}
	}()
	c2 := newConn(inst.url, c1.token)
	defer c1.close()
	defer c2.close()

	e := &engine{w: w, inst: inst, data: data, pre: pre, kbKey: kbKeys(inst.p.KB)}
	if e.kbBody, err = kbBodies(inst.p.KB, e.kbKey); err != nil {
		return nil, err
	}
	res.InputHash = streamHash(w, o.seed, o.warmup+o.window, len(e.kbKey))
	var walk *walker
	if o.trace {
		c3 := newConn(inst.url, c1.token)
		defer c3.close()
		if walk, err = newWalker(e, c3); err != nil {
			return nil, err
		}
	}

	// The timed window, then the cross-check of what it did not exercise.
	win, err := e.drive(w.window, data.regular, [2]*conn{c1, c2}, o.seed, o.warmup, o.window, walk, dir)
	if err != nil {
		return nil, err
	}
	phases := []*phase{win}
	if w.cross != (traffic{}) {
		cross, err := e.drive(w.cross, data.cohort, [2]*conn{c1, c2}, o.seed+1000, o.crossWarmup, o.cross, nil, dir)
		if err != nil {
			return nil, err
		}
		phases = append(phases, cross)
	}

	final := make(map[string]ingest.Status)
	all := append([]upload(nil), pre...)
	for i := range pre {
		final[pre[i].id] = inst.status(pre[i].id)
	}
	var tallies []tally
	for _, ph := range phases {
		tallies = append(tallies, ph.tally(res, e, final))
		all = append(all, ph.uploads...)
	}
	got, cross := tallies[0], tallies[len(tallies)-1]
	// A class of traffic is measured in the window when the window
	// carries it, in the cross-check otherwise.
	// The closed-loop window's latency is its throughput read backwards
	// (16 in flight ÷ rate), so there latency too is the cross-check's.
	uploads, rate, reads, exports := &got, &got, &got, &got
	if len(got.stored) == 0 {
		uploads, rate = &cross, &cross
	}
	if w.window.uploadWindow > 0 {
		uploads = &cross
	}
	if len(got.reads) == 0 {
		reads = &cross
	}
	if len(got.exports) == 0 {
		exports = &cross
	}
	if got.ops == 0 || len(uploads.stored) < 2 || len(reads.reads) == 0 {
		res.problem("%v of window and %v of cross-check completed too little to measure (%d ops, %d uploads, %d reads)",
			o.window, o.cross, got.ops, len(uploads.stored), len(reads.reads))
		return res, nil
	}

	// State checks on the live platform, then what it leaves resident
	// and on disk, then close, reopen and check what came back.
	userBytes := checkLive(res, e, all, final)
	verifyStart := time.Now()
	if err := inst.p.MultiChain.VerifyAll(); err != nil {
		res.problem("ledger verification before close: %v", err)
	}
	verifyMS := ms(time.Since(verifyStart))
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := inst.syncAll(); err != nil {
		res.problem("sync: %v", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	chain := ledgerShape(inst)
	hashes := inst.p.MultiChain.StateHashes()
	walkPuts := 0
	if walk != nil {
		walkPuts = walk.puts
		if status, body, err := c2.do("GET", "/traces/summary", nil); err == nil && status == http.StatusOK {
			os.WriteFile(filepath.Join(o.out, "traces-summary-"+w.name+".json"), body, 0o644)
		}
	}
	// Reopen is repeated while it is quick, where one reading would be
	// noise; a replay that takes seconds is steady enough read once.
	var reopenS []float64
	for round, spent := 0, 0.0; round < o.reopens && (round == 0 || spent < 1.5); round++ {
		inst.close()
		inst = nil
		runtime.GC() // the closed instance is this process's garbage, not the replay's
		start := time.Now()
		if inst, err = boot(dir); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		reopenS = append(reopenS, time.Since(start).Seconds())
		spent += reopenS[round]
	}
	checkReopened(res, inst, all, final, walkPuts, hashes)

	delta := win.after.sub(win.before)
	if !o.trace {
		res.set("setup_s", median(setupS), len(setupS))
		res.set("upload_stored_p50_ms", uploads.q(uploads.stored, 0.50), len(uploads.stored))
		res.set("upload_stored_p95_ms", uploads.q(uploads.stored, 0.95), len(uploads.stored))
		res.set("stored_per_s", rate.storedPerS(), len(rate.done))
		res.set("read_p95_ms", reads.q(reads.reads, 0.95), len(reads.reads))
		res.set("alloc_kb_per_op", got.allocKBPerOp, got.ops)
		res.set("disk_bytes_per_user_byte", float64(disk)/float64(userBytes), 0)
		res.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), 0)
		return res, nil
	}

	spans := withSelfTimes(win.rec.snapshot())
	if err := writeJSONFile(filepath.Join(o.out, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	byName := durationsUS(spans)
	for _, d := range perLayer {
		if samples, ok := byName[d.span]; d.span != "" && ok {
			scale := 1.0
			if d.unit == "ms" {
				scale = 1e-3
			}
			res.set(d.name, median(samples)*scale, len(samples))
		}
	}
	if g, s := byName["httpapi.guard"], byName["httpapi.socket"]; len(g) > 0 && len(s) > 0 {
		res.set("httpapi.socket_us", median(s)-median(g), len(s))
	}
	// The walk's hand-made puts and submits cost what an upload's do, so
	// they count as uploads where a count is shared out per upload.
	perUpload := float64(delta.stored) + float64(walk.steps)
	consents := &got
	if len(got.consents) == 0 {
		consents = &cross
	}
	res.set("admission.rejected", float64(delta.rejected), 0)
	res.set("httpapi.read_p50_ms", reads.q(reads.reads, 0.50), len(reads.reads))
	res.set("ingest.export_p50_ms", exports.q(exports.exports, 0.50), len(exports.exports))
	res.set("core.reopen_s", median(reopenS), len(reopenS))
	res.set("proc.cpu_ms_per_op", got.cpuMSPerOp, got.ops)
	res.timing("consent.request_p50_ms", 0.50, values(consents.consents))
	res.timing("ingest.ack_p50_ms", 0.50, values(rate.ack))
	res.timing("ingest.ack_p95_ms", 0.95, values(rate.ack))
	res.timing("ingest.residence_p50_ms", 0.50, values(rate.residence))
	res.set("ingest.queue_depth_max", float64(win.seen.queueDepthMax), 0)
	res.set("ingest.retries", float64(delta.retries), 0)
	res.set("ingest.dead_lettered", float64(delta.dead), 0)
	res.set("shardlake.shard_skew", chain.shardSkew, 0)
	res.set("shardlake.repairs", float64(delta.repairs), 0)
	res.set("durable.fsyncs_per_upload", float64(delta.fsyncs)/perUpload, 0)
	res.set("durable.appends_per_fsync", float64(delta.appends)/float64(delta.fsyncs), 0)
	res.set("durable.bytes_per_upload", float64(delta.disk)/perUpload, 0)
	res.timing("durable.sync_us", 0.50, walk.fsyncUS)
	res.set("ledger.mean_batch_size", float64(delta.batched)/float64(delta.commits), 0)
	res.set("ledger.fallbacks", float64(delta.fallbacks), 0)
	res.set("ledger.block_cut_ms", chain.blockCutMS, 0)
	res.set("ledger.tx_per_block", chain.txPerBlock, 0)
	res.set("ledger.channel_skew", chain.channelSkew, 0)
	res.set("ledger.verify_ms", verifyMS, 1)
	res.set("kbcache.hit_rate", ratio(float64(delta.kbHits), float64(delta.kbHits+delta.kbMisses)), 0)
	res.set("kb.origin_calls", float64(delta.kbOrigin), 0)
	res.set("audit.events", float64(chain.auditEvents), 0)
	res.set("proc.gc_pause_ms", ms(delta.gcPause), 0)
	res.set("proc.goroutines_max", float64(win.seen.goroutinesMax), 0)
	res.timing("bench.generator_lag_p95_ms", 0.95, append(got.lagMS, cross.lagMS...))
	// Warm-up ran the window's traffic with no spans and no walk: the
	// workload's own latency there is the untraced baseline.
	traced, untraced := values(got.stored), got.warmStoredMS
	if len(traced) == 0 {
		traced, untraced = values(got.reads), got.warmReadMS
	}
	if base := median(untraced); base > 0 {
		res.set("bench.trace_overhead_pct", (median(traced)/base-1)*100, len(untraced))
	}
	// A layer metric with no samples (an export that outlasted a short
	// cross-check, say) reads 0 with n=0; it gates nothing.
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || math.IsNaN(m.Value) {
			fmt.Fprintf(os.Stderr, "bench: %s: per-layer metric %s had no samples\n", w.name, d.name)
			res.set(d.name, 0, 0)
		}
	}
	return res, nil
}

// ratio is num/den, 0 when there was nothing to divide.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phase is one driven stretch of traffic and what it produced.
type phase struct {
	senders       []*sender
	walk          *walker
	rec           *recorder // the traced window's spans; nil otherwise
	uploads       []upload
	before, after counters
	seen          gauges
	start, end    time.Time
	// Process CPU time and bytes allocated at each slice boundary.
	cpuAt   [maxSlices + 1]time.Duration
	allocAt [maxSlices + 1]uint64
}

// drive runs tr over the two connections, uploading for pop: warm
// seconds untimed, then length timed. It returns once every upload it
// had accepted has ended.
func (e *engine) drive(tr traffic, pop []patient, conns [2]*conn, seed int64, warm, length time.Duration, walk *walker, dir string) (*phase, error) {
	targets := e.w.eligible(pop)
	s1 := &sender{e: e, c: conns[0], pop: pop, window: tr.uploadWindow, targets: targets,
		pick:  rand.New(rand.NewSource(seed ^ 0xc105ed)),
		sched: schedule(seed, warm+length, tr.uploadRate, tr.flipRate, targets)}
	if tr.conn1Reads != (readMix{}) {
		s1.reads, s1.every = newReadStream(seed+1, tr.conn1Reads, len(e.kbKey), len(e.pre)), interval(tr.conn1Rate)
	}
	ph := &phase{senders: []*sender{s1}, walk: walk}
	if tr.conn2Reads != (readMix{}) {
		ph.senders = append(ph.senders, &sender{e: e, c: conns[1], every: interval(tr.conn2Rate),
			reads: newReadStream(seed+2, tr.conn2Reads, len(e.kbKey), len(e.pre))})
	}

	if walk != nil {
		ph.rec = newRecorder()
		e.rec = ph.rec
		defer func() { e.rec = nil }() // the cross-check runs untraced
	}
	e.accepted.Store(0)
	e.completedBase = e.inst.p.Ingest.Completed()
	e.t0 = time.Now()
	e.winStart = e.t0.Add(warm)
	e.winEnd = e.winStart.Add(length)
	ph.start, ph.end = e.winStart, e.winEnd
	var wg sync.WaitGroup
	for _, s := range ph.senders {
		wg.Add(1)
		go func(s *sender) { defer wg.Done(); s.run(e.winEnd) }(s)
	}
	time.Sleep(time.Until(e.winStart))
	stopSampling := make(chan struct{})
	if walk != nil {
		// The walk and the sampler start with the window, and spans are
		// kept only for operations begun inside it, so the warm-up
		// before it is the untraced baseline.
		wg.Add(2)
		go func() { defer wg.Done(); walk.run(e.winEnd) }()
		go func() { defer wg.Done(); e.inst.sample(stopSampling, &ph.seen) }()
	}
	// Counters at the window's edges; CPU and allocation also at every
	// slice boundary between them.
	var err error
	for i := 0; i <= maxSlices && err == nil; i++ {
		time.Sleep(time.Until(e.winStart.Add(time.Duration(i) * length / maxSlices)))
		var c counters
		switch i {
		case 0:
			ph.before, err = e.inst.readCounters(dir)
			c = ph.before
		case maxSlices:
			ph.after, err = e.inst.readCounters(dir)
			c = ph.after
		default:
			c, err = processCounters()
		}
		ph.cpuAt[i], ph.allocAt[i] = c.cpu, c.totalAlloc
	}
	close(stopSampling)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	ph.uploads = append(ph.uploads, s1.uploads...)
	if walk != nil {
		ph.uploads = append(ph.uploads, walk.uploads...)
	}
	// Every accepted upload must end; only then are stored-times known.
	// One that does not is reported by tally, against its own id.
	_ = e.inst.drain(ph.uploads)
	return ph, nil
}

// interval is the time between sends at rate per second (0 = no pacing).
func interval(rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / rate)
}

// tally is a phase's samples, pooled over its senders.
type tally struct {
	start, end               time.Time
	ack, stored, residence   []sample // regular uploads sent in the window, by send/due time
	reads, exports, consents []sample
	done                     []sample // every regular upload that reached stored in the window, at its DoneAt
	lagMS                    []float64
	warmStoredMS, warmReadMS []float64
	ops                      int            // operations begun in the window that completed
	opsIn                    [maxSlices]int // the same, per slice of the window
	cpuMSPerOp, allocKBPerOp float64
}

// q reads quantile q off one class of samples, slice by slice.
func (t *tally) q(samples []sample, q float64) float64 {
	return sliced(samples, t.start, t.end, q)
}

// storedPerS is the median over slices of each slice's completion rate,
// first completion to last, so an open loop reads its achieved rate.
func (t *tally) storedPerS() float64 {
	width := t.end.Sub(t.start) / maxSlices
	var first, last [maxSlices]time.Time
	var n [maxSlices]int
	for _, d := range t.done {
		i := max(0, min(maxSlices-1, int(d.at.Sub(t.start)/width)))
		if n[i] == 0 || d.at.Before(first[i]) {
			first[i] = d.at
		}
		if d.at.After(last[i]) {
			last[i] = d.at
		}
		n[i]++
	}
	var rates []float64
	for i := range n {
		if n[i] > 1 {
			rates = append(rates, float64(n[i]-1)/last[i].Sub(first[i]).Seconds())
		}
	}
	return median(rates)
}

// tally checks every upload's end state against what was sent, folds
// failures into res, and pools the timed samples.
func (ph *phase) tally(res *result, e *engine, final map[string]ingest.Status) tally {
	t := tally{start: ph.start, end: ph.end}
	width := ph.end.Sub(ph.start) / maxSlices
	count := func(at time.Time) {
		t.ops++
		t.opsIn[max(0, min(maxSlices-1, int(at.Sub(ph.start)/width)))]++
	}
	for i := range ph.uploads {
		u := &ph.uploads[i]
		st := e.inst.status(u.id)
		final[u.id] = st
		if p := uploadProblem(u, st); p != "" {
			res.Failed++
			res.problem("%s", p)
			continue
		}
		if u.timed {
			count(u.start)
		}
		if u.probe || u.walk {
			continue // probes and the walk's uploads are checked, not timed
		}
		if !st.DoneAt.Before(ph.start) && st.DoneAt.Before(ph.end) {
			t.done = append(t.done, sample{at: st.DoneAt})
		}
		switch {
		case u.timed:
			t.ack = append(t.ack, sample{u.start, ms(u.acked.Sub(u.start))})
			t.stored = append(t.stored, sample{u.start, ms(st.DoneAt.Sub(u.start))})
			t.residence = append(t.residence, sample{u.start, ms(st.DoneAt.Sub(st.ReceivedAt))})
			op := e.opSeq.Add(1)
			parent := ph.rec.add("upload.stored", u.start, st.DoneAt, 0, op)
			ph.rec.add("upload.ack", u.start, u.acked, parent, op)
		case u.start.Before(ph.start):
			t.warmStoredMS = append(t.warmStoredMS, ms(st.DoneAt.Sub(u.start)))
		}
	}
	for _, s := range ph.senders {
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, p := range s.problems {
			res.problem("%s", p)
		}
		for k, v := range s.done {
			for _, r := range v {
				count(r.at)
			}
			switch readKind(k) {
			case readExport:
				t.exports = append(t.exports, v...)
			case readFacts:
			default:
				t.reads = append(t.reads, v...)
			}
		}
		for _, c := range s.consents {
			count(c.at)
		}
		t.consents = append(t.consents, s.consents...)
		t.lagMS = append(t.lagMS, s.lagMS...)
		t.warmReadMS = append(t.warmReadMS, s.warmMS...)
	}
	if ph.walk != nil {
		for _, p := range ph.walk.problems {
			res.problem("%s", p)
		}
	}
	// CPU and allocation per operation, slice by slice, then the median.
	var cpu, alloc []float64
	for i, n := range t.opsIn {
		if n > 0 {
			cpu = append(cpu, ms(ph.cpuAt[i+1]-ph.cpuAt[i])/float64(n))
			alloc = append(alloc, float64(ph.allocAt[i+1]-ph.allocAt[i])/1024/float64(n))
		}
	}
	t.cpuMSPerOp, t.allocKBPerOp = median(cpu), median(alloc)
	return t
}

// timeEmptyPlatform measures opening and closing the platform on an
// empty directory, the floor under setup_s and reopen_s.
func timeEmptyPlatform(res *result, dir string) error {
	start := time.Now()
	inst, err := boot(dir)
	if err != nil {
		return err
	}
	res.set("core.open_empty_s", time.Since(start).Seconds(), 1)
	start = time.Now()
	inst.close()
	res.set("core.close_s", time.Since(start).Seconds(), 1)
	return os.RemoveAll(dir)
}

// shape is the ledger's and the lake's layout at the end of a run.
type shape struct {
	blockCutMS, txPerBlock, channelSkew, shardSkew float64
	auditEvents                                    int
}

func ledgerShape(in *instance) shape {
	var sh shape
	var blocks uint64
	var cut time.Duration
	var txs []float64
	for _, ch := range in.p.MultiChain.Channels() {
		n, mean := ch.Net.BlockCutStats()
		blocks, cut = blocks+n, cut+mean
		if peer, err := ch.Net.Peer(ch.Net.PeerIDs()[0]); err == nil {
			txs = append(txs, float64(peer.Ledger().TxCount()))
		}
	}
	sh.blockCutMS = ms(cut) / float64(len(in.p.MultiChain.Channels()))
	sh.txPerBlock = ratio(float64(in.p.MultiChain.TxCount()), float64(blocks))
	sh.channelSkew = maxOverMean(txs)
	var objects []float64
	for _, n := range in.p.ShardLake.ShardObjects() {
		objects = append(objects, float64(n))
	}
	sh.shardSkew = maxOverMean(objects)
	sh.auditEvents = in.p.Audit.Len()
	return sh
}

func maxOverMean(xs []float64) float64 {
	var sum, top float64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	return ratio(top*float64(len(xs)), sum)
}

// checkLive verifies, while the keys that sealed them are still in
// memory, that every stored upload reads back as the bytes sent and
// that the export is exactly the cohort, de-identified. It returns the
// plaintext bytes of everything stored.
func checkLive(res *result, e *engine, all []upload, final map[string]ingest.Status) (userBytes int64) {
	p := e.inst.p
	cohort := 0
	for i := range all {
		u := &all[i]
		st := final[u.id]
		if st.State != ingest.StateStored {
			continue
		}
		userBytes += int64(len(u.patient.plain))
		if u.patient.group == exportedGroup {
			cohort++
		}
		body, err := p.Lake.Get(st.RefID, storageSelf)
		if err != nil {
			res.problem("stored upload %s: reading %s: %v", u.id, st.RefID, err)
		} else if sha256.Sum256(body) != u.patient.sum {
			res.problem("stored upload %s: %s does not hold the bytes sent", u.id, st.RefID)
		}
	}
	recs, err := p.Ingest.ExportAnonymized(exportedGroup, adminUser)
	if err != nil {
		res.problem("export: %v", err)
		return userBytes
	}
	if len(recs) != cohort {
		res.problem("export returned %d records, the cohort has %d", len(recs), cohort)
	}
	for _, r := range recs {
		for _, field := range []string{`"name"`, `"telecom"`, `"identifier"`, `"birthDate"`, `"city"`} {
			if bytes.Contains(r.Bundle, []byte(field)) {
				res.problem("exported record %s still carries %s", r.RefID, field)
			}
		}
	}
	if _, divergent := p.ShardLake.VerifyConvergence(); len(divergent) > 0 {
		res.problem("%d lake objects diverge between replicas before close", len(divergent))
	}
	return userBytes
}

// checkReopened verifies what a restart brought back from disk.
func checkReopened(res *result, in *instance, all []upload, final map[string]ingest.Status, walkPuts int, hashes map[string]string) {
	p := in.p
	stored := 0
	for i := range all {
		st := final[all[i].id]
		if st.State != ingest.StateStored {
			continue
		}
		stored++
		if _, err := p.Lake.Meta(st.RefID); err != nil {
			res.problem("after reopen stored upload %s (%s) is gone: %v", all[i].id, st.RefID, err)
		}
	}
	// Each stored upload is an identified and a de-identified record; the
	// layer walk's hand-made puts are the only other writers.
	if got, want := p.Lake.Count(), 2*stored+walkPuts; got != want {
		res.problem("after reopen the lake holds %d objects, want %d (2 per stored upload)", got, want)
	}
	if _, divergent := p.ShardLake.VerifyConvergence(); len(divergent) > 0 {
		res.problem("after reopen %d lake objects diverge between replicas", len(divergent))
	}
	if err := p.MultiChain.VerifyAll(); err != nil {
		res.problem("after reopen the ledger does not verify: %v", err)
	}
	if got := p.MultiChain.StateHashes(); !reflect.DeepEqual(got, hashes) {
		res.problem("after reopen ledger state hashes differ: %v, were %v", got, hashes)
	}
}

// line renders the one-line result the driver reads.
func (r *result) line() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	mustNil(err)
	return string(data)
}
