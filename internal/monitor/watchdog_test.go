package monitor

import (
	"strings"
	"testing"
	"time"

	"healthcloud/internal/audit"
	"healthcloud/internal/telemetry"
)

// newTestWatchdog wires a watchdog over one controllable probe and a
// DLQ-style delta objective.
func newTestWatchdog(t *testing.T) (*Watchdog, *telemetry.Registry, *audit.Log, *ProbeState) {
	t.Helper()
	reg := telemetry.NewRegistry()
	h := NewHistory(reg, 32)
	ev := NewEvaluator(h, []Objective{
		{Name: "dlq-empty", Kind: DeltaObjective, Counter: "dead_lettered_total", MaxDelta: 0},
	})
	state := StateOK
	p := NewProber()
	p.AddCheck("store", func() Health { return Health{State: state, Detail: "lake"} })
	log := audit.NewLog()
	w := NewWatchdog(WatchdogConfig{
		History: h, Evaluator: ev, Prober: p, Audit: log,
		Tracer: telemetry.NewTracer(16, 16, telemetry.DefaultPolicy()),
	})
	return w, reg, log, &state
}

func TestWatchdogRaisesAndClearsAlerts(t *testing.T) {
	w, reg, log, state := newTestWatchdog(t)

	rep := w.Tick()
	if len(rep.Raised) != 0 || len(w.ActiveAlerts()) != 0 {
		t.Fatalf("healthy tick raised %+v", rep.Raised)
	}

	// Fault: probe degrades and the DLQ counter moves.
	*state = StateDegraded
	reg.Counter("dead_lettered_total").Inc()
	rep = w.Tick()
	if len(rep.Raised) != 2 {
		t.Fatalf("raised %d alerts, want 2 (probe + slo): %+v", len(rep.Raised), rep.Raised)
	}
	if len(w.ActiveAlerts()) != 2 {
		t.Fatalf("active = %+v", w.ActiveAlerts())
	}

	// Same fault persists: no duplicate raise events.
	reg.Counter("dead_lettered_total").Inc()
	rep = w.Tick()
	if len(rep.Raised) != 0 {
		t.Fatalf("persistent fault re-raised: %+v", rep.Raised)
	}

	// Recovery: probe heals and the DLQ counter stops moving long
	// enough to leave the objective window.
	*state = StateOK
	rep = w.Tick()
	if len(rep.Cleared) == 0 {
		t.Fatalf("recovery cleared nothing: %+v", rep)
	}

	raised := log.Find(audit.Query{Service: "monitor", Action: "alert-raised"})
	cleared := log.Find(audit.Query{Service: "monitor", Action: "alert-cleared"})
	if len(raised) != 2 {
		t.Fatalf("audit raised events = %d, want 2", len(raised))
	}
	if len(cleared) == 0 {
		t.Fatal("no audit cleared events")
	}
	for _, e := range raised {
		if !strings.Contains(e.Detail, "trace=") {
			t.Errorf("alert event not trace-correlated: %+v", e)
		}
		if e.Actor != "watchdog" || e.Resource == "" {
			t.Errorf("malformed alert event: %+v", e)
		}
	}
}

func TestWatchdogSeverityTracksProbeState(t *testing.T) {
	w, _, log, state := newTestWatchdog(t)
	*state = StateDown
	w.Tick()
	events := log.Find(audit.Query{Service: "monitor", Action: "alert-raised"})
	if len(events) != 1 || events[0].Level != audit.LevelError {
		t.Fatalf("down probe should raise at error level: %+v", events)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	w, _, _, _ := newTestWatchdog(t)
	w.Start(2 * time.Millisecond)
	w.Start(2 * time.Millisecond) // double start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for w.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	w.Stop() // double stop is safe
	if w.Ticks() < 3 {
		t.Fatalf("watchdog only ticked %d times", w.Ticks())
	}
	after := w.Ticks()
	time.Sleep(10 * time.Millisecond)
	if w.Ticks() != after {
		t.Fatal("watchdog kept ticking after Stop")
	}
}

func TestWatchdogNilSafety(t *testing.T) {
	var w *Watchdog
	w.Start(time.Millisecond)
	w.Stop()
	if rep := w.Tick(); rep.Tick != 0 {
		t.Fatal("nil watchdog must no-op")
	}
	if w.ActiveAlerts() != nil || w.Ticks() != 0 {
		t.Fatal("nil watchdog accessors must return zero values")
	}

	// A watchdog with every piece nil still ticks without panicking.
	empty := NewWatchdog(WatchdogConfig{})
	if rep := empty.Tick(); rep.Tick != 1 {
		t.Fatalf("empty watchdog tick = %+v", rep)
	}
}

func TestMonitorBundleNilSafety(t *testing.T) {
	var m *Monitor
	if m.History() != nil || m.Evaluator() != nil || m.Prober() != nil || m.Watchdog() != nil {
		t.Fatal("nil monitor accessors must return nil")
	}
}
