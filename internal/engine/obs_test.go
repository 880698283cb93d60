package engine

import (
	"math/rand"
	"testing"
	"time"

	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestTracePipelineOrder drives the §5 pipeline with tracing on and
// checks that the trace contains the stages in pipeline order for the
// firing posting: happening → mask → step → fire, inside a tx-begin /
// tx-commit bracket.
func TestTracePipelineOrder(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Large")

	ring := e.EnableTracing(1024)
	if !e.TracingEnabled() {
		t.Fatal("tracing not enabled")
	}
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(500))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	evs := ring.Events(0)
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Walk the trace expecting the pipeline stages of the withdraw
	// posting in order: tx-begin, then the after-withdraw happening,
	// its mask evaluation, the automaton step, the firing, and finally
	// the commit fixpoint and commit.
	next := 0
	expect := func(want obs.Stage, match func(obs.Event) bool) obs.Event {
		t.Helper()
		for ; next < len(evs); next++ {
			ev := evs[next]
			if ev.Stage == want && (match == nil || match(ev)) {
				next++
				return ev
			}
		}
		t.Fatalf("stage %v not found in pipeline order (trace: %+v)", want, evs)
		return obs.Event{}
	}
	expect(obs.StageTxBegin, func(ev obs.Event) bool { return ev.Kind == "user" })
	expect(obs.StageHappening, func(ev obs.Event) bool { return ev.Kind == "after withdraw" })
	expect(obs.StageMask, func(ev obs.Event) bool { return ev.Trigger == "Large" })
	expect(obs.StageStep, func(ev obs.Event) bool { return ev.Trigger == "Large" && ev.OK })
	expect(obs.StageFire, nil)
	expect(obs.StageTcomplete, nil)
	expect(obs.StageTxCommit, nil)

	// The fire event names the trigger and carries a latency.
	var fire *obs.Event
	for i := range evs {
		if evs[i].Stage == obs.StageFire {
			fire = &evs[i]
			break
		}
	}
	if fire.Trigger != "Large" || fire.Class != "account" || !fire.OK {
		t.Fatalf("fire event = %+v", fire)
	}

	// The mask event records requested vs satisfied bits.
	for _, ev := range evs {
		if ev.Stage == obs.StageMask {
			if ev.From == 0 {
				t.Fatalf("mask event with empty requested bits: %+v", ev)
			}
			if !ev.OK || ev.To == 0 {
				t.Fatalf("a>100 mask should have passed: %+v", ev)
			}
		}
	}

	// Disabling stops recording.
	e.DisableTracing()
	before := ring.Total()
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ring.Total() != before {
		t.Fatal("tracer still receiving events after DisableTracing")
	}
	if e.TraceEvents(10) != nil {
		t.Fatal("TraceEvents should be nil when disabled")
	}
}

// TestTraceMaskRejection: a masked-out happening shows up as a mask
// event with OK=false — the "why didn't my trigger fire" story.
func TestTraceMaskRejection(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Large")
	ring := e.EnableTracing(256)

	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(5)) // masked out
		return err
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range ring.Events(0) {
		if ev.Stage == obs.StageMask && ev.Trigger == "Large" {
			found = true
			if ev.OK || ev.To != 0 {
				t.Fatalf("mask verdict should be false: %+v", ev)
			}
		}
		if ev.Stage == obs.StageFire {
			t.Fatalf("unexpected firing: %+v", ev)
		}
	}
	if !found {
		t.Fatal("no mask event for the rejected withdraw")
	}
}

// TestPerTriggerMetrics checks the per-trigger registry against the
// global Stats counters on a mixed workload.
func TestPerTriggerMetrics(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"},
		schema.Trigger{Name: "AnyDep", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Large", "AnyDep")

	if err := e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(500)) // fires Large
		tx.Call(oid, "withdraw", value.Int(50))  // masked out
		tx.Call(oid, "deposit", value.Int(1))    // fires AnyDep
		tx.Call(oid, "deposit", value.Int(2))    // fires AnyDep
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The engine is fresh, so cumulative stats and cumulative trigger
	// metrics cover exactly the same history.
	d := e.Stats()

	snap := e.Metrics().Snapshot()
	var large, anyDep *obs.TriggerSnapshot
	for i := range snap.Triggers {
		switch snap.Triggers[i].Trigger {
		case "Large":
			large = &snap.Triggers[i]
		case "AnyDep":
			anyDep = &snap.Triggers[i]
		}
	}
	if large == nil || anyDep == nil {
		t.Fatalf("snapshot missing triggers: %+v", snap.Triggers)
	}
	if large.Firings != 1 || anyDep.Firings != 2 {
		t.Fatalf("firings: Large=%d AnyDep=%d", large.Firings, anyDep.Firings)
	}
	// Acceptance invariant: per-trigger firings sum to Stats().Firings.
	if large.Firings+anyDep.Firings != d.Firings {
		t.Fatalf("per-trigger firings %d+%d != stats %d", large.Firings, anyDep.Firings, d.Firings)
	}
	// Latency histograms account for every firing.
	if large.Latency.Count != large.Firings || anyDep.Latency.Count != anyDep.Firings {
		t.Fatal("latency histogram counts != firings")
	}
	// Mask metrics: Large evaluated its mask twice, once false.
	if large.MaskEvals != 2 || large.MaskFalse != 1 {
		t.Fatalf("Large mask evals=%d false=%d", large.MaskEvals, large.MaskFalse)
	}
	if anyDep.MaskEvals != 0 {
		t.Fatalf("AnyDep has no masks but evals=%d", anyDep.MaskEvals)
	}
	// Steps are split across the two triggers and sum to the global
	// counter.
	if large.Steps+anyDep.Steps != d.Steps {
		t.Fatalf("per-trigger steps %d+%d != stats %d", large.Steps, anyDep.Steps, d.Steps)
	}
	// Class rollup.
	if len(snap.Classes) != 1 || snap.Classes[0].Happenings != d.Happenings {
		t.Fatalf("class happenings %+v vs stats %d", snap.Classes, d.Happenings)
	}
	// Trigger handles expose the same counters.
	if e.Class("account").Trigger("Large").Metrics().Firings() != 1 {
		t.Fatal("Trigger.Metrics() disagrees with snapshot")
	}
}

// TestPerTriggerMetricsOnSeededWorkload: over 50 seeded transactions
// of random deposits and withdrawals on four objects, the per-trigger
// firings and latency counts each sum to Stats().Firings, the trace
// ring keeps what it can of what it saw, and a second engine fed the
// same seed counts the same happenings and firings.
func TestPerTriggerMetricsOnSeededWorkload(t *testing.T) {
	run := func() Stats {
		t.Helper()
		cls, impl := accountClass(&recorder{},
			schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"},
			schema.Trigger{Name: "Pair", Perpetual: true, Event: "prior(after deposit, after withdraw)"},
			schema.Trigger{Name: "AnyDep", Perpetual: true, Event: "after deposit"})
		e := newEngine(t, Options{})
		ring := e.EnableTracing(1024)
		if _, err := e.RegisterClass(cls, impl, nil); err != nil {
			t.Fatal(err)
		}
		oids := make([]store.OID, 4)
		err := e.Transact(func(tx *Tx) error {
			for i := range oids {
				oid, err := tx.NewObject("account", nil)
				if err != nil {
					return err
				}
				oids[i] = oid
				for _, tr := range cls.Triggers {
					if err := tx.Activate(oid, tr.Name); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			err := e.Transact(func(tx *Tx) error {
				for j := 0; j < 4; j++ {
					oid, amount, method := oids[rng.Intn(len(oids))], value.Int(int64(rng.Intn(300))), "deposit"
					if rng.Intn(2) == 0 {
						method = "withdraw"
					}
					if _, err := tx.Call(oid, method, amount); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		stats := e.Stats()
		snap := e.Metrics().Snapshot()
		if len(snap.Triggers) != 3 {
			t.Fatalf("trigger snapshots = %d, want 3", len(snap.Triggers))
		}
		var firings, latCount uint64
		for _, ts := range snap.Triggers {
			firings += ts.Firings
			latCount += ts.Latency.Count
		}
		if stats.Firings == 0 || firings != stats.Firings || latCount != stats.Firings {
			t.Fatalf("per-trigger firings %d, latency counts %d, Stats().Firings %d",
				firings, latCount, stats.Firings)
		}
		if ring.Len() == 0 || ring.Total() < uint64(ring.Len()) {
			t.Fatalf("trace retained %d of %d", ring.Len(), ring.Total())
		}
		return stats
	}
	a, b := run(), run()
	if a.Happenings != b.Happenings || a.Firings != b.Firings {
		t.Fatalf("seeded runs differ: %d/%d happenings, %d/%d firings",
			a.Happenings, b.Happenings, a.Firings, b.Firings)
	}
}

// TestStatsTcompleteAndShadow covers the new Stats counters.
func TestStatsTcompleteAndShadow(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Any", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{ShadowOracle: true})
	oid := setup(t, e, cls, impl, "Any")

	base := e.Stats()
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	d := e.Stats().Delta(base)
	if d.TcompleteRounds < 1 {
		t.Fatalf("TcompleteRounds Δ=%d", d.TcompleteRounds)
	}
	if d.ShadowChecks < 1 {
		t.Fatalf("ShadowChecks Δ=%d (shadow oracle on)", d.ShadowChecks)
	}
	if got := StatsDelta(e.Stats(), base); got != d && got.Happenings < d.Happenings {
		t.Fatal("StatsDelta disagrees with Delta")
	}
}

// TestTimerTraceAndOptions: timer deliveries appear as StageTimer, and
// the Options.TraceBuffer knob enables tracing at open.
func TestTimerTraceAndOptions(t *testing.T) {
	e := newEngine(t, Options{
		Start:       time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		TraceBuffer: 512,
	})
	if !e.TracingEnabled() {
		t.Fatal("Options.TraceBuffer did not enable tracing")
	}
	cls := &schema.Class{
		Name:    "mon",
		Fields:  []schema.Field{{Name: "x", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{{Name: "tick", Mode: schema.ModeUpdate}},
		Triggers: []schema.Trigger{
			{Name: "Min", Perpetual: true, Event: "every time(M=1)"},
		},
	}
	fired := 0
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"tick": func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
		},
		Actions: map[string]ActionFunc{
			"Min": func(*ActionCtx) error { fired++; return nil },
		},
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err := e.Transact(func(tx *Tx) error {
		oid, err := tx.NewObject("mon", nil)
		if err != nil {
			return err
		}
		return tx.Activate(oid, "Min")
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock().Advance(3 * time.Minute)
	if fired != 3 {
		t.Fatalf("fired %d times", fired)
	}
	timers := 0
	for _, ev := range e.TraceEvents(0) {
		if ev.Stage == obs.StageTimer {
			timers++
			if ev.Kind == "" {
				t.Fatalf("timer trace without kind: %+v", ev)
			}
		}
	}
	if timers != 3 {
		t.Fatalf("%d StageTimer events, want 3", timers)
	}
}

// TestPostHotPathDisabledTracerNoAllocs is the allocation guard for
// the disabled-tracer fast path: posting a happening that steps an
// active (non-firing, mask-free) trigger must not allocate at all —
// the observability layer's disabled cost is one atomic load per hook
// plus per-trigger atomic counter adds.
func TestPostHotPathDisabledTracerNoAllocs(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "RW", Perpetual: true, Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "RW")

	tx := e.Begin()
	defer tx.Abort()
	record, err := tx.access(oid)
	if err != nil {
		t.Fatal(err)
	}
	// Posting after-withdraw first keeps the automaton cycling without
	// ever accepting (prior requires a deposit strictly earlier).
	h := event.Happening{
		Kind: event.MethodKind(event.After, "withdraw"),
		TxID: tx.tx.ID(),
		At:   tx.e.clk.Now(),
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := tx.stepOne(oid, record, h); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("post hot path allocates %.1f per happening with tracing disabled", allocs)
	}

	// Sanity: the same posting with tracing enabled records events
	// (the fast path really was the disabled branch, not dead code).
	ring := e.EnableTracing(64)
	if _, err := tx.stepOne(oid, record, h); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("no events traced once enabled")
	}
}
