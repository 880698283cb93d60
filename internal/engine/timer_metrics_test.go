package engine

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/value"
)

// TestTimerMetricsExposition: the timer gauges and the dropped-error
// counter reach /debug/metrics with correct values and TYPE lines.
func TestTimerMetricsExposition(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "Once", Event: "after time(M=30)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err := e.Transact(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(1)})
			if err != nil {
				return err
			}
			for _, trig := range []string{"Tick", "Daily", "Once"} {
				if err := tx.Activate(oid, trig); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.DebugHandler())
	t.Cleanup(srv.Close)

	code, body, _ := debugGetBody(t, srv, "/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics => %d", code)
	}
	samples := promSamples(t, body)

	// Two cohorts (Tick, Daily) of ten members each + ten 'after'
	// one-shots pending.
	for name, want := range map[string]float64{
		"ode_engine_timers_pending":             12,
		"ode_engine_timer_cohorts":              2,
		"ode_engine_timer_members":              20,
		"ode_engine_timer_errors_dropped_total": 0,
	} {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
	s := e.Stats()
	if s.TimersPending != 12 || s.TimerCohorts != 2 || s.TimerMembers != 20 {
		t.Fatalf("Stats: pending=%d cohorts=%d members=%d", s.TimersPending, s.TimerCohorts, s.TimerMembers)
	}
}

// TestTimerErrRingBounded: recordTimerErr retains at most
// timerErrRingCap errors, drops the oldest, and counts the evictions.
func TestTimerErrRingBounded(t *testing.T) {
	e := newEngine(t, Options{})
	for i := 0; i < timerErrRingCap+10; i++ {
		e.recordTimerErr(errNumbered(i))
	}
	errs := e.TimerErrors()
	if len(errs) != timerErrRingCap {
		t.Fatalf("retained %d errors, want %d", len(errs), timerErrRingCap)
	}
	// Oldest first, so the first retained error is number 10.
	if errs[0].Error() != errNumbered(10).Error() {
		t.Fatalf("oldest retained = %v", errs[0])
	}
	if errs[len(errs)-1].Error() != errNumbered(timerErrRingCap+9).Error() {
		t.Fatalf("newest retained = %v", errs[len(errs)-1])
	}
	if got := e.Stats().TimerErrsDropped; got != 10 {
		t.Fatalf("TimerErrsDropped = %d, want 10", got)
	}
}

type errNumbered int

func (e errNumbered) Error() string { return fmt.Sprintf("timer error #%d", int(e)) }
