package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"healthcloud/internal/ingest"
)

// traffic is what the two connections carry during one phase of a run.
// Connection 1 is devices and clinicians, connection 2 analysts.
type traffic struct {
	uploadRate   float64 // connection 1, open loop: uploads per second (0 = none)
	uploadWindow int     // connection 1, closed loop: accepted-but-unfinished uploads kept in flight (0 = none)
	flipRate     float64 // connection 1, open loop: consent flips per second
	conn1Reads   readMix // connection 1, closed loop reads between the open-loop sends (zero = none)
	conn2Reads   readMix // connection 2, closed loop reads (zero = idle)
	// A closed-loop reader waits for each reply and keeps to a schedule of
	// this many requests per second, catching up after a slow reply. The
	// rates sit at a third to a half of what the connection can carry, so
	// how many operations of each kind a window holds is the schedule's
	// doing, not the box's mood, and per-operation costs compare run to run.
	conn1Rate, conn2Rate float64
}

// workload is one run shape: the traffic of its timed window, and the
// traffic of the short cross-check that follows. The cross-check runs
// whatever the window did not — reads after an ingest workload, uploads
// after a read workload — on the state the window left behind, so every
// end-to-end metric has a value on every workload while the window
// itself stays one kind of load.
type workload struct {
	name string
	why  string

	patients     int // patients the window uploads for, spread over the study groups
	observations int // Observations in each of their bundles
	preload      int // the cohort: small-bundle records stored during set-up, and what a cross-check uploads
	// staticCohort keeps uploads out of the exported group, so an
	// export's input is the same on every workload that sets it.
	staticCohort bool

	window traffic
	cross  traffic
}

const (
	flipsPerSecond = 8 // 2 consent requests each: 240 in a 15 s window, so a p95 has ten samples beyond it
	steadyRate     = 120
	readRate       = 1000 // interactive reads/s on a connection that carries about 3000
	analyticsRate  = 8    // exports and /facts per second on a connection that carries about 38
	regrantDelay   = 200 * time.Millisecond
	exportedGroup  = "study-0"
)

// crossCheck is the traffic of every cross-check: a little of everything,
// at rates the platform carries with room to spare — the steady upload
// rate with small bundles, paced interactive reads, paced exports, a few
// consent flips. A workload reads from it the metrics its window lacks.
var crossCheck = traffic{uploadRate: steadyRate, flipRate: flipsPerSecond,
	conn1Reads: interactiveMix, conn1Rate: readRate,
	conn2Reads: readMix{readExport: 1}, conn2Rate: analyticsRate / 2}

var workloads = []*workload{
	{
		name:     "ingest-steady",
		why:      "open loop, 120 small uploads/s, about a third of capacity: time-to-stored is ledger batch window, ordering, commit-wait and fsync waits, not CPU",
		patients: 512, observations: smallObs, preload: 600, staticCohort: true,
		window: traffic{uploadRate: steadyRate},
		cross:  crossCheck,
	},
	{
		name:     "ingest-saturate",
		why:      "closed loop, 16 large (150-Observation, 28 KB) uploads in flight: decrypt, parse, scan, de-identify, seal and journal bytes bound throughput; largest on-disk state",
		patients: 128, observations: largeObs, preload: 600, staticCohort: true,
		window: traffic{uploadWindow: 16},
		cross:  crossCheck,
	},
	{
		name:    "read-mix",
		why:     "1000 interactive reads/s beside 8 exports and /facts per second over a fixed cohort, ingest idle: guard, cache tiers, lake reads, k-anonymity and audit scans do the work",
		preload: 600, staticCohort: true,
		window: traffic{conn1Reads: interactiveMix, conn1Rate: readRate, conn2Reads: analyticsMix, conn2Rate: analyticsRate},
		cross:  crossCheck,
	},
	{
		name:     "mixed-consent",
		why:      "60 uploads/s and 8 consent flips/s beside 150 reads/s with exports of a group being written: a read-side win paid for on the write side shows only here",
		patients: 512, observations: smallObs, preload: 600,
		window: traffic{uploadRate: steadyRate / 2, flipRate: flipsPerSecond,
			conn2Reads: interactiveMix.withExport(32), conn2Rate: 150},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// eligible lists which of a population uploads may carry.
func (w *workload) eligible(pop []patient) []int {
	var out []int
	for i := range pop {
		if !w.staticCohort || pop[i].group != exportedGroup {
			out = append(out, i)
		}
	}
	return out
}

// engine holds what the senders, the layer walk and the checks share
// for one run against one live instance.
type engine struct {
	w      *workload
	inst   *instance
	data   *inputs
	kbKey  []string
	kbBody [][]byte
	pre    []upload  // preloaded uploads, for status reads
	rec    *recorder // nil outside the traced window
	opSeq  atomic.Int64

	// The phase being driven: traffic starts at t0, counts from winStart.
	t0, winStart, winEnd time.Time

	accepted      atomic.Int64 // uploads accepted since completedBase was read
	completedBase uint64
}

func (e *engine) inWindow(t time.Time) bool {
	return !t.Before(e.winStart) && t.Before(e.winEnd)
}

// inflight is how many accepted uploads have not reached a terminal state.
func (e *engine) inflight() int {
	return int(e.accepted.Load()) - int(e.inst.p.Ingest.Completed()-e.completedBase)
}

// regrant is the second half of a consent flip, held until the probe
// upload sent under the revocation has ended: the platform checks
// consent when a worker reaches the upload, so re-granting earlier
// would make the probe's outcome a race instead of a fact.
type regrant struct {
	patient *patient
	due     time.Time
	probe   string
	timed   bool
}

// sender drives one connection from one goroutine.
type sender struct {
	e     *engine
	c     *conn
	sched []item
	next  int
	held  []regrant

	pop     []patient // whose bundles this sender's uploads carry
	window  int
	pick    *rand.Rand // closed-loop upload patient choice
	targets []int      // eligible indices into pop
	reads   *readStream
	every   time.Duration // the readers' schedule: one read per every (0 = as fast as replies come)
	nextAt  time.Time

	uploads   []upload
	done      [numReadKinds][]sample // timed reads, by kind
	warmMS    []float64              // interactive reads before the window: the untraced baseline
	consents  []sample
	lagMS     []float64
	attempted int
	failed    int
	problems  []string
}

func (s *sender) fail(format string, args ...any) {
	s.failed++
	if len(s.problems) < 5 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run sends until end: whatever open-loop item is due first, then a held
// re-grant, then closed-loop work if there is room for it.
func (s *sender) run(end time.Time) {
	e := s.e
	s.nextAt = e.t0
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		wait := end.Sub(now)
		if s.next < len(s.sched) {
			it := s.sched[s.next]
			due := e.t0.Add(it.due)
			if !due.After(now) {
				s.next++
				s.sendItem(it, due, now)
				continue
			}
			wait = min(wait, due.Sub(now))
		}
		if len(s.held) > 0 {
			if s.regrantReady(now) {
				s.sendRegrant()
				continue
			}
			wait = min(wait, max(s.held[0].due.Sub(now), regrantPoll))
		}
		if s.window > 0 {
			if e.inflight() < s.window {
				pt := &s.pop[s.targets[s.pick.Intn(len(s.targets))]]
				s.sendUpload(pt, now, false)
				continue
			}
			wait = min(wait, 100*time.Microsecond)
		}
		if s.reads != nil {
			if !s.nextAt.After(now) {
				s.sendRead()
				s.nextAt = s.nextAt.Add(s.every)
				continue
			}
			wait = min(wait, s.nextAt.Sub(now))
		}
		time.Sleep(wait)
	}
	// Leave no patient revoked: finish the re-grants still held.
	deadline := end.Add(opTimeout)
	for len(s.held) > 0 && time.Now().Before(deadline) {
		if s.regrantReady(time.Now()) {
			s.sendRegrant()
			continue
		}
		time.Sleep(regrantPoll)
	}
	for range s.held {
		s.attempted++
		s.fail("re-grant never became possible: probe upload did not end")
	}
}

func (s *sender) sendItem(it item, due, now time.Time) {
	timed := s.e.inWindow(due)
	if timed {
		s.lagMS = append(s.lagMS, ms(now.Sub(due)))
	}
	switch it.kind {
	case itemUpload:
		s.sendUpload(&s.pop[it.patient], due, false)
	case itemFlip:
		pt := &s.e.data.flips[it.patient]
		start := time.Now()
		status, _, err := s.c.do("DELETE", "/api/v1/consents?patient="+pt.id+"&group="+pt.group, nil)
		end := time.Now()
		s.consent("consent.revoke", start, end, timed, err, status, http.StatusOK)
		if err != nil || status != http.StatusOK {
			return
		}
		if id := s.sendUpload(pt, end, true); id != "" {
			s.held = append(s.held, regrant{patient: pt, due: due.Add(regrantDelay), probe: id, timed: timed})
		}
	}
}

// regrantPoll is how often a held re-grant looks at its probe upload.
const regrantPoll = 500 * time.Microsecond

// regrantReady reports whether the oldest held re-grant is due and its
// probe upload has ended.
func (s *sender) regrantReady(now time.Time) bool {
	g := s.held[0]
	return !g.due.After(now) && s.e.inst.status(g.probe).State.Terminal()
}

func (s *sender) sendRegrant() {
	g := s.held[0]
	s.held = s.held[1:]
	start := time.Now()
	status, _, err := s.c.do("POST", "/api/v1/consents", consentBody(g.patient))
	s.consent("consent.grant", start, time.Now(), g.timed, err, status, http.StatusCreated)
}

func (s *sender) consent(name string, start, end time.Time, timed bool, err error, status, want int) {
	s.attempted++
	if err != nil || status != want {
		s.fail("%s: status %d err %v", name, status, err)
		return
	}
	if timed {
		s.consents = append(s.consents, sample{start, ms(end.Sub(start))})
		s.e.rec.add(name, start, end, 0, s.e.opSeq.Add(1))
	}
}

// sendUpload posts one bundle; start is the moment latency counts from.
func (s *sender) sendUpload(pt *patient, start time.Time, probe bool) string {
	s.attempted++
	id, err := s.e.inst.postUpload(s.c, pt)
	if err != nil {
		s.fail("upload: %v", err)
		return ""
	}
	s.e.accepted.Add(1)
	s.uploads = append(s.uploads, upload{id: id, patient: pt, start: start, acked: time.Now(),
		probe: probe, timed: s.e.inWindow(start)})
	return id
}

func (s *sender) sendRead() {
	e := s.e
	op := s.reads.next()
	path, valid := e.readRequest(op)
	if op.invalidate {
		if err := e.inst.p.InvalidateKB(e.kbKey[op.arg]); err != nil {
			s.fail("invalidate %s: %v", e.kbKey[op.arg], err)
		}
	}
	start := time.Now()
	status, body, err := s.c.do("GET", path, nil)
	end := time.Now()
	s.attempted++
	if err != nil || status != http.StatusOK || !valid(body) {
		s.fail("GET %s: status %d err %v", path, status, err)
		return
	}
	switch {
	case e.inWindow(start):
		s.done[op.kind] = append(s.done[op.kind], sample{start, ms(end.Sub(start))})
		e.rec.add("http."+readNames[op.kind], start, end, 0, e.opSeq.Add(1))
	case start.Before(e.winStart) && op.kind < readExport:
		s.warmMS = append(s.warmMS, ms(end.Sub(start)))
	}
}

// readRequest maps a drawn read to its route and a cheap check of the
// reply; the full export check runs once, after the window.
func (e *engine) readRequest(op readOp) (string, func([]byte) bool) {
	has := func(marker string) func([]byte) bool {
		return func(b []byte) bool { return bytes.Contains(b, []byte(marker)) }
	}
	switch op.kind {
	case readKB:
		want := e.kbBody[op.arg]
		return "/api/v1/kb/" + e.kbKey[op.arg], func(b []byte) bool { return bytes.Equal(b, want) }
	case readModel:
		return "/api/v1/models/" + modelName, has("intercept")
	case readServices:
		return "/api/v1/services/nlu", has("providers")
	case readBilling:
		return "/api/v1/billing", has("total_cents")
	case readStatus:
		return "/api/v1/uploads/" + e.pre[op.arg].id, has(`"state":"stored"`)
	case readAudit:
		return "/api/v1/audit?service=ingest&action=register-client", has(`"count":`)
	case readExport:
		floor := e.w.preload / numGroups
		return "/api/v1/exports/anonymized?group=" + exportedGroup, func(b []byte) bool {
			return bytes.Count(b, []byte(`"ref_id"`)) >= floor
		}
	default:
		return "/api/v1/facts", has(`"facts"`)
	}
}

// uploadProblem holds an upload's final status against what was sent
// and says what is wrong with it, if anything.
func uploadProblem(u *upload, st ingest.Status) string {
	switch {
	case !st.State.Terminal():
		return fmt.Sprintf("upload %s never ended (state %q)", u.id, st.State)
	case u.probe && st.State == ingest.StateStored:
		return fmt.Sprintf("upload %s for revoked patient %s was stored: consent violation", u.id, u.patient.id)
	case u.probe && (st.State != ingest.StateFailed || !strings.Contains(st.Error, "consent")):
		return fmt.Sprintf("probe %s ended %s (%s), want failed on consent", u.id, st.State, st.Error)
	case !u.probe && st.State != ingest.StateStored:
		return fmt.Sprintf("upload %s ended %s: %s", u.id, st.State, st.Error)
	}
	return ""
}
