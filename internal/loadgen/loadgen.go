// Package loadgen is the open-loop load harness (ROADMAP item 4): K
// synthetic client fleets whose arrival rates follow curves (constant,
// diurnal, burst, thundering-herd-after-outage) over a mixed workload,
// driven end to end against a live platform.
//
// Open-loop is the point. A closed-loop driver (every worker waits for
// the previous response) self-throttles exactly when the platform slows
// down, which hides goodput collapse — the failure mode that
// distinguishes architectures under overload. Here arrivals are
// scheduled by the curve regardless of in-flight responses: when the
// platform can't keep up, requests pile into its queues (or get shed),
// and the report shows offered rate vs goodput honestly. The only
// client-side cap is each fleet's connection pool; arrivals that find
// the pool saturated are counted as client overflow, never silently
// dropped.
package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"
)

// Op is one operation in a fleet's workload mix. Do performs a single
// synchronous request and classifies its result; Weight sets the mix
// ratio (weight 2 fires twice as often as weight 1).
type Op struct {
	Name   string
	Weight int
	Do     func() Outcome
}

// Phase is one segment of a fleet's schedule: a named arrival curve
// driven for a duration. Reports are broken down per phase.
type Phase struct {
	Name     string
	Duration time.Duration
	Curve    Curve
}

// Fleet is one synthetic client population.
type Fleet struct {
	Name   string
	Phases []Phase
	Ops    []Op
	// Concurrency caps in-flight requests (the fleet's connection pool;
	// default 64). Arrivals beyond it count as client overflow.
	Concurrency int
}

// Config tunes the engine.
type Config struct {
	// Tick is the scheduler resolution (default 2ms). Arrivals accumulate
	// fractionally between ticks, so rates well below 1/tick still offer
	// the right total.
	Tick time.Duration
	// MaxSamples caps per-phase latency samples (default 65536; reservoir
	// beyond that keeps quantiles unbiased).
	MaxSamples int
	// Snapshot, when set, is sampled at the end of every phase and
	// attached to the phase report — the platform-side view (queue depth,
	// shed state) lined up against the client-side numbers.
	Snapshot func() map[string]any
}

// Engine runs fleets. Construct with New.
type Engine struct {
	cfg Config
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * time.Millisecond
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 65536
	}
	return &Engine{cfg: cfg}
}

// Run drives every fleet concurrently (each fleet walks its phases in
// order) and returns the combined report. It blocks until all phases
// complete and every in-flight request has returned.
func (e *Engine) Run(fleets []Fleet) *Report {
	rep := &Report{Fleets: make([]FleetReport, len(fleets))}
	var wg sync.WaitGroup
	for i := range fleets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Fleets[i] = e.runFleet(fleets[i])
		}(i)
	}
	wg.Wait()
	return rep
}

// phaseStats accumulates one phase's measurements. The scheduler
// goroutine owns offered/overflow; request goroutines funnel outcomes
// through the mutex.
type phaseStats struct {
	offered, overflow uint64

	mu       sync.Mutex
	sent     uint64
	outcomes [4]uint64
	lat      []time.Duration
	seen     uint64 // OK requests observed (for reservoir sampling)
	ops      map[string]uint64
	rng      *rand.Rand // reservoir randomness, guarded by mu
	maxLat   int
}

func (st *phaseStats) record(op string, out Outcome, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sent++
	st.outcomes[out]++
	st.ops[op]++
	if out != OutcomeOK {
		return
	}
	st.seen++
	if len(st.lat) < st.maxLat {
		st.lat = append(st.lat, d)
		return
	}
	// Reservoir: every OK request keeps an equal chance of being sampled
	// even past the cap, so long phases don't bias quantiles early.
	if j := st.rng.Int63n(int64(st.seen)); int(j) < st.maxLat {
		st.lat[j] = d
	}
}

// runFleet walks one fleet's phases. In-flight requests are drained at
// each phase boundary so latencies and outcomes land in the phase that
// issued them.
func (e *Engine) runFleet(f Fleet) FleetReport {
	conc := f.Concurrency
	if conc <= 0 {
		conc = 64
	}
	sem := make(chan struct{}, conc)
	// Deterministic op mix per fleet name: reruns offer the same op
	// sequence, so run-to-run diffs are platform-side.
	sum := sha256.Sum256([]byte(f.Name))
	seed := int64(binary.BigEndian.Uint64(sum[:8]))
	rng := rand.New(rand.NewSource(seed))
	totalWeight := 0
	for _, op := range f.Ops {
		if op.Weight <= 0 {
			continue
		}
		totalWeight += op.Weight
	}

	out := FleetReport{Fleet: f.Name}
	var wg sync.WaitGroup
	for _, ph := range f.Phases {
		st := &phaseStats{
			ops: make(map[string]uint64), maxLat: e.cfg.MaxSamples,
			rng: rand.New(rand.NewSource(seed ^ int64(len(out.Phases)))),
		}
		start := time.Now()
		last := start
		acc := 0.0
		ticker := time.NewTicker(e.cfg.Tick)
		for now := range ticker.C {
			elapsed := now.Sub(start)
			if elapsed >= ph.Duration {
				break
			}
			// Fractional accumulator: rate × dt arrivals since the last
			// tick, carried across ticks so low rates don't round to zero.
			acc += ph.Curve.Rate(elapsed) * now.Sub(last).Seconds()
			last = now
			for acc >= 1 {
				acc--
				st.offered++
				if totalWeight == 0 {
					continue
				}
				op := pickOp(f.Ops, totalWeight, rng)
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func(op Op) {
						defer wg.Done()
						defer func() { <-sem }()
						t0 := time.Now()
						st.record(op.Name, op.Do(), time.Since(t0))
					}(op)
				default:
					// Pool saturated: the arrival happened (open loop!) but
					// this client could not send it. Counted, not hidden.
					st.overflow++
				}
			}
		}
		ticker.Stop()
		wg.Wait()
		out.Phases = append(out.Phases, e.phaseReport(ph, st, time.Since(start)))
	}
	return out
}

// pickOp draws an op by weight.
func pickOp(ops []Op, totalWeight int, rng *rand.Rand) Op {
	n := rng.Intn(totalWeight)
	for _, op := range ops {
		if op.Weight <= 0 {
			continue
		}
		if n < op.Weight {
			return op
		}
		n -= op.Weight
	}
	return ops[len(ops)-1]
}

func (e *Engine) phaseReport(ph Phase, st *phaseStats, wall time.Duration) PhaseReport {
	st.mu.Lock()
	defer st.mu.Unlock()
	secs := wall.Seconds()
	r := PhaseReport{
		Phase:       ph.Name,
		Seconds:     secs,
		Offered:     st.offered,
		Sent:        st.sent,
		Overflow:    st.overflow,
		OK:          st.outcomes[OutcomeOK],
		RateLimited: st.outcomes[OutcomeRateLimited],
		Shed:        st.outcomes[OutcomeShed],
		Errors:      st.outcomes[OutcomeError],
		P50Ms:       ms(Quantile(st.lat, 0.50)),
		P95Ms:       ms(Quantile(st.lat, 0.95)),
		P99Ms:       ms(Quantile(st.lat, 0.99)),
		Ops:         st.ops,
	}
	if secs > 0 {
		r.OfferedRate = float64(st.offered) / secs
		r.GoodputRate = float64(st.outcomes[OutcomeOK]) / secs
	}
	if e.cfg.Snapshot != nil {
		r.Snapshot = e.cfg.Snapshot()
	}
	return r
}
