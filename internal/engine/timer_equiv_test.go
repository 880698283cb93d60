package engine

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// timerEquivRun drives one engine through the scripted timer workload
// and returns everything the cohort/per-object comparison pins:
// per-object firing sequences, final balances, provenance chains, and
// the aggregate counters.
type timerEquivRun struct {
	fires    map[store.OID][]string // per-object firing sequence, in order
	balances map[store.OID]int64
	prov     map[string][]string // "oid/trigger" → rendered steps
	stats    Stats
	errs     []error
}

// timerEquivScript runs the mixed timer workload against a fresh
// engine: periodic, calendar, and 'after' one-shot specs across many
// objects, interleaved with method calls, partial deactivation, object
// deletion, and an aborted activation (whose timer intents the
// rollback drops).
func timerEquivScript(t *testing.T, perObject bool) *timerEquivRun {
	t.Helper()
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "Combo", Perpetual: true, Event: "relative(every time(M=10), after withdraw)"},
		schema.Trigger{Name: "Late", Event: "after time(M=45)"})
	// Record firings per object: cross-object order at one instant is
	// not pinned (see timerbatch.go); per-object order is.
	for _, name := range []string{"Tick", "Daily", "Combo", "Late"} {
		name := name
		impl.Actions[name] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%d/%s", ctx.Self, name))
			return nil
		}
	}
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	chk := attachChecker(e, 1<<17)
	e.timers.perObject = perObject
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}

	const n = 24
	oids := make([]store.OID, n)
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(1000)})
			if err != nil {
				return err
			}
			oids[i] = oid
			if err := tx.Activate(oid, "Tick"); err != nil {
				return err
			}
			if i%2 == 0 {
				if err := tx.Activate(oid, "Daily"); err != nil {
					return err
				}
			}
			if i%3 == 0 {
				if err := tx.Activate(oid, "Combo"); err != nil {
					return err
				}
			}
			if i%4 == 0 {
				if err := tx.Activate(oid, "Late"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	e.Clock().Advance(30 * time.Minute) // 3 Ticks; Late still pending
	checkTrace(t, chk, e)

	err = e.Transact(func(tx *Tx) error {
		for i, oid := range oids {
			if i%3 == 0 {
				if _, err := tx.Call(oid, "withdraw", value.Int(int64(10+i))); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	e.Clock().Advance(20 * time.Minute) // Late fires at +45m; more Ticks
	checkTrace(t, chk, e)

	// Partial deactivation and a deletion while cohorts are live.
	err = e.Transact(func(tx *Tx) error {
		for i, oid := range oids {
			if i%5 == 0 {
				if err := tx.Deactivate(oid, "Tick"); err != nil {
					return err
				}
			}
		}
		return tx.DeleteObject(oids[7])
	})
	if err != nil {
		t.Fatal(err)
	}

	// An aborted activation leaves the schedule as it was: the
	// activation's timer intents disappear with the rollback.
	boom := fmt.Errorf("boom")
	if err := e.Transact(func(tx *Tx) error {
		if err := tx.Activate(oids[1], "Daily"); err != nil {
			return err
		}
		if _, err := tx.Call(oids[1], "deposit", value.Int(5)); err != nil {
			return err
		}
		return boom
	}); err != boom {
		t.Fatalf("abort err = %v", err)
	}

	e.Clock().Advance(10 * time.Hour) // crosses 17:00 → Daily
	checkTrace(t, chk, e)
	e.Clock().Advance(24 * time.Hour) // second Daily, many Ticks
	checkTrace(t, chk, e)

	run := &timerEquivRun{
		fires:    map[store.OID][]string{},
		balances: map[store.OID]int64{},
		prov:     map[string][]string{},
		stats:    e.Stats(),
		errs:     e.TimerErrors(),
	}
	for _, f := range rec.list() {
		var oid store.OID
		var name string
		fmt.Sscanf(f, "%d/%s", &oid, &name)
		run.fires[oid] = append(run.fires[oid], name)
	}
	for _, oid := range oids {
		r, err := e.Store().Get(oid)
		if err != nil {
			continue // the deleted object
		}
		run.balances[oid] = field(r, "balance").AsInt()
		for _, trig := range []string{"Tick", "Daily", "Combo", "Late"} {
			ex, err := e.Explain(trig, oid)
			if err != nil {
				continue
			}
			key := fmt.Sprintf("%d/%s", oid, trig)
			for _, s := range ex.Steps {
				// TxID is excluded: transaction ids depend on how many
				// system transactions ran, which is exactly what cohort
				// delivery amortizes. Everything semantic is compared.
				run.prov[key] = append(run.prov[key],
					fmt.Sprintf("seq=%d at=%d kind=%s bits=%d sym=%d %d->%d acc=%v",
						s.Seq, s.AtNs, s.Kind, s.Bits, s.Sym, s.From, s.To, s.Accepted))
			}
		}
	}
	return run
}

// TestTimerCohortEquivalence proves cohort delivery is observationally
// equivalent to the per-object baseline (timerTable.perObject):
// identical per-object firing sequences, balances, provenance chains,
// and aggregate counters, with the shadow oracle cross-checking every
// automaton step in both runs.
func TestTimerCohortEquivalence(t *testing.T) {
	cohort := timerEquivScript(t, false)
	legacy := timerEquivScript(t, true)

	if len(cohort.errs) != 0 || len(legacy.errs) != 0 {
		t.Fatalf("timer errors: cohort=%v legacy=%v", cohort.errs, legacy.errs)
	}
	if len(cohort.fires) != len(legacy.fires) {
		t.Fatalf("objects that fired: cohort=%d legacy=%d", len(cohort.fires), len(legacy.fires))
	}
	for oid, want := range legacy.fires {
		if got := cohort.fires[oid]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("object %d firing sequence:\n cohort: %v\n legacy: %v", oid, got, want)
		}
	}
	for oid, want := range legacy.balances {
		if got, ok := cohort.balances[oid]; !ok || got != want {
			t.Errorf("object %d balance: cohort=%d legacy=%d", oid, got, want)
		}
	}
	var keys []string
	for k := range legacy.prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if fmt.Sprint(cohort.prov[k]) != fmt.Sprint(legacy.prov[k]) {
			t.Errorf("provenance %s:\n cohort: %v\n legacy: %v", k, cohort.prov[k], legacy.prov[k])
		}
	}
	// The counters the paths must agree on. SystemTx is intentionally
	// different (that is the amortization); check the direction.
	cs, ls := cohort.stats, legacy.stats
	if cs.Happenings != ls.Happenings || cs.Steps != ls.Steps ||
		cs.Firings != ls.Firings || cs.TimerPosts != ls.TimerPosts ||
		cs.MaskEvals != ls.MaskEvals || cs.ProvenanceSteps != ls.ProvenanceSteps {
		t.Errorf("stats diverge:\n cohort: %+v\n legacy: %+v", cs, ls)
	}
	if cs.SystemTx >= ls.SystemTx {
		t.Errorf("cohort delivery should run fewer system transactions: cohort=%d legacy=%d",
			cs.SystemTx, ls.SystemTx)
	}
}

// TestTimerCohortSharing checks the §3.1 sharing structure directly:
// objects of one class on the same canonical spec occupy one cohort
// (one armed clock timer), and the TimerSchedule views agree between
// layouts.
func TestTimerCohortSharing(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Tock", Perpetual: true, Event: "every time(M=10)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oids []store.OID
	err := e.Transact(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			oids = append(oids, oid)
			if err := tx.Activate(oid, "Tick"); err != nil {
				return err
			}
			if err := tx.Activate(oid, "Tock"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 objects × 2 triggers on one spec, armed in one instant: one
	// cohort, one pending clock timer.
	s := e.Stats()
	if s.TimerCohorts != 1 {
		t.Fatalf("TimerCohorts = %d, want 1", s.TimerCohorts)
	}
	if s.TimersPending != 1 {
		t.Fatalf("TimersPending = %d, want 1", s.TimersPending)
	}
	if sched := e.TimerSchedule(); len(sched) != 200 {
		t.Fatalf("TimerSchedule entries = %d, want 200", len(sched))
	}
	e.Clock().Advance(10 * time.Minute)
	if rec.count() != 200 {
		t.Fatalf("fires = %d, want 200", rec.count())
	}
	// Dropping every membership dissolves the cohort and its timer.
	err = e.Transact(func(tx *Tx) error {
		for _, oid := range oids {
			if err := tx.Deactivate(oid, "Tick"); err != nil {
				return err
			}
			if err := tx.Deactivate(oid, "Tock"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.TimerCohorts != 0 || s.TimersPending != 0 {
		t.Fatalf("after full deactivation: cohorts=%d pending=%d", s.TimerCohorts, s.TimersPending)
	}
}

// TestDifferentTriggersOnOneSpecShareACohort: two different triggers
// whose time events have the same canonical periodic spec, a heartbeat
// `relative(every …, after deposit)` on a fleet of 512 and a plain
// `every …` on every 64th object, armed in one instant, occupy one
// cohort and one pending clock timer (§3.1).
func TestDifferentTriggersOnOneSpecShareACohort(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Heartbeat", Perpetual: true, Event: "relative(every time(M=10), after deposit)"},
		schema.Trigger{Name: "Cron", Perpetual: true, Event: "every time(M=10)"})
	e := newEngine(t, Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err := e.Transact(func(tx *Tx) error {
		for i := 0; i < 512; i++ {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			if err := tx.Activate(oid, "Heartbeat"); err != nil {
				return err
			}
			if i%64 == 0 {
				if err := tx.Activate(oid, "Cron"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.TimerCohorts != 1 || s.TimersPending != 1 {
		t.Fatalf("fleet of 512: cohorts=%d pending=%d, want 1/1", s.TimerCohorts, s.TimersPending)
	}
	if sched := e.TimerSchedule(); len(sched) != 512+8 {
		t.Fatalf("TimerSchedule entries = %d, want %d", len(sched), 512+8)
	}
}
