package engine

import (
	"testing"
	"time"

	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// timerFleet registers an account class with the given triggers on a
// fresh engine and creates n accounts with every trigger active; rich
// reports which of them start with a balance of 1 000 (nil: none).
func timerFleet(tb testing.TB, n int, rich func(i int) bool, triggers ...schema.Trigger) (*Engine, []store.OID) {
	tb.Helper()
	cls, impl := accountClass(&recorder{}, triggers...)
	for _, tr := range triggers {
		impl.Actions[tr.Name] = func(*ActionCtx) error { return nil }
	}
	e, err := New(Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		tb.Fatal(err)
	}
	oids := make([]store.OID, n)
	err = e.Transact(func(tx *Tx) error {
		for i := range oids {
			balance := int64(0)
			if rich != nil && rich(i) {
				balance = 1000
			}
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(balance)})
			if err != nil {
				return err
			}
			oids[i] = oid
			for _, tr := range triggers {
				if err := tx.Activate(oid, tr.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e, oids
}

// advanceRecords advances e's clock by d and returns the flight records
// that wrote.
func advanceRecords(t *testing.T, e *Engine, d time.Duration) []obs.FlightEvent {
	t.Helper()
	before := e.Flight().Total()
	e.Clock().Advance(d)
	evs := e.FlightEvents(int(e.Flight().Total() - before))
	if uint64(len(evs)) != e.Flight().Total()-before {
		t.Fatalf("the recorder kept %d of the %d records written", len(evs), e.Flight().Total()-before)
	}
	return evs
}

// stageCount counts the events of a stage.
func stageCount(evs []obs.FlightEvent, st obs.Stage) (n int) {
	for _, ev := range evs {
		if ev.Stage == st {
			n++
		}
	}
	return n
}

// TestCohortTickIsOneFlightRecord: a cohort tick is one flight record,
// its StageBatch, whatever the cohort's size — it carries the class, the
// timer kind, the member count and the id of the system transaction that
// made the steps, and no member writes a StageTimer. An 'after' one-shot
// writes the one StageHappening of its step. A trace still gets one
// StageTimer event per member.
func TestCohortTickIsOneFlightRecord(t *testing.T) {
	tick := schema.Trigger{Name: "Rich", Perpetual: true, Event: "every time(M=10) && balance > 100"}
	var added []int
	for _, n := range []int{10, 1000} {
		e, _ := timerFleet(t, n, nil, tick)
		evs := advanceRecords(t, e, 10*time.Minute)
		added = append(added, len(evs))
		if got := stageCount(evs, obs.StageTimer); got != 0 {
			t.Fatalf("a tick over %d members wrote %d StageTimer records", n, got)
		}
		if got := stageCount(evs, obs.StageBatch); got != 1 {
			t.Fatalf("a tick over %d members wrote %d StageBatch records, want 1: %+v", n, got, evs)
		}
		for _, ev := range evs {
			if ev.Stage == obs.StageBatch && (ev.From != n || ev.Class != "account" || ev.Kind == "") {
				t.Fatalf("tick over %d members: batch record %+v, want From=%d, class account, a timer kind", n, ev, n)
			}
		}
	}
	if added[0] != added[1] {
		t.Fatalf("ticks over 10 and 1 000 members wrote %d and %d flight records", added[0], added[1])
	}

	// The batch record's transaction made the members' steps.
	e, _ := timerFleet(t, 10, nil, tick)
	tr := e.EnableTracing(1024)
	evs := advanceRecords(t, e, 10*time.Minute)
	var batch obs.FlightEvent
	for _, ev := range evs {
		if ev.Stage == obs.StageBatch {
			batch = ev
		}
	}
	var timers, steps int
	for _, ev := range tr.Events(0) {
		switch ev.Stage {
		case obs.StageTimer:
			timers++
		case obs.StageHappening:
			steps++
			if ev.TxID != batch.TxID || ev.TxID == 0 {
				t.Fatalf("a member's step ran in transaction %d, the tick's record names %d", ev.TxID, batch.TxID)
			}
		}
	}
	if timers != 10 || steps != 10 {
		t.Fatalf("the trace saw %d StageTimer and %d StageHappening events over 10 members, want 10 each", timers, steps)
	}

	// An 'after' one-shot is an individually posted happening.
	e, _ = timerFleet(t, 1, nil, schema.Trigger{Name: "Once", Event: "after time(M=30)"})
	evs = advanceRecords(t, e, 30*time.Minute)
	if h, tm := stageCount(evs, obs.StageHappening), stageCount(evs, obs.StageTimer); h != 1 || tm != 0 {
		t.Fatalf("a one-shot delivery wrote %d StageHappening and %d StageTimer records, want 1 and 0", h, tm)
	}
	if s := e.Stats(); s.TimerPosts != 1 || s.Firings != 1 {
		t.Fatalf("one-shot: %d timer posts, %d firings; want 1 and 1", s.TimerPosts, s.Firings)
	}
}

// BenchmarkCohortTick: one tick of an 'every' cohort of 100 000 members,
// 1 in 64 of which fire, per iteration; ns/member is the tick's time
// divided by its members.
func BenchmarkCohortTick(b *testing.B) {
	const n = 100000
	e, _ := timerFleet(b, n, func(i int) bool { return i%64 == 0 },
		schema.Trigger{Name: "Rich", Perpetual: true, Event: "every time(M=10) && balance > 100"})
	e.Clock().Advance(10 * time.Minute) // the first tick registers the firing members
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Clock().Advance(10 * time.Minute)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/member")
	if errs := e.TimerErrors(); len(errs) != 0 {
		b.Fatal(errs)
	}
}
