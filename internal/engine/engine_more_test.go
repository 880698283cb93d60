package engine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

func TestDeleteObjectDisarmsTimers(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "Once", Event: "after time(M=30)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl, "Tick", "Daily", "Once")

	if err := e.Transact(func(tx *Tx) error { return tx.DeleteObject(oid) }); err != nil {
		t.Fatal(err)
	}
	e.Clock().Advance(48 * time.Hour)
	if rec.count() != 0 {
		t.Fatalf("timers fired on a deleted object: %v", rec.list())
	}
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
}

func TestSharedTimerRefcounting(t *testing.T) {
	// Two triggers on the same 'at' spec share one armed timer; while
	// either is active the events flow, and both firing at the same
	// tick see the same history point.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "A", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "B", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl, "A", "B")

	e.Clock().Advance(10 * time.Hour)
	if rec.count() != 2 {
		t.Fatalf("fires = %v", rec.list())
	}
	// Deactivate one; the other keeps receiving the shared timer.
	e.Transact(func(tx *Tx) error { return tx.Deactivate(oid, "A") })
	e.Clock().Advance(24 * time.Hour)
	if rec.count() != 3 {
		t.Fatalf("fires after partial deactivation = %v", rec.list())
	}
	// Deactivate the last one: timer disappears.
	e.Transact(func(tx *Tx) error { return tx.Deactivate(oid, "B") })
	e.Clock().Advance(24 * time.Hour)
	if rec.count() != 3 {
		t.Fatalf("shared timer survived full deactivation: %v", rec.list())
	}
	if e.Clock().Pending() != 0 {
		t.Fatalf("%d timers still pending", e.Clock().Pending())
	}
}

func TestOrdinaryTimerTriggerDisarmsOnFire(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "D", Event: "at time(HR=17)"}) // ordinary
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	setup(t, e, cls, impl, "D")

	e.Clock().Advance(48 * time.Hour)
	if rec.count() != 1 {
		t.Fatalf("ordinary timed trigger fired %d times", rec.count())
	}
	if e.Clock().Pending() != 0 {
		t.Fatal("fired ordinary trigger left a pending timer")
	}
}

func TestMaskErrorAbortsTransaction(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Bad", Perpetual: true, Event: "after deposit && boom() == 1"})
	impl.Funcs = map[string]MaskFunc{
		"boom": func([]value.Value) (value.Value, error) {
			return value.Null(), errors.New("kaput")
		},
	}
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Bad")

	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err == nil {
		t.Fatal("mask error swallowed")
	}
	r, _ := e.Store().Get(oid)
	if !field(r, "balance").Equal(value.Int(1000)) {
		t.Fatalf("failed transaction left effects: %v", field(r, "balance"))
	}
}

func TestMaskUpdateMethodRejected(t *testing.T) {
	// §7 requires side-effect-free conditions; calling an update method
	// from a mask is an error.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Bad", Perpetual: true, Event: "after deposit && withdraw(1) == null"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Bad")

	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err == nil {
		t.Fatal("update-method mask call accepted")
	}
}

func TestMaskReadMethodAndGlobalFunc(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Rich", Perpetual: true,
			Event: "after deposit && getBalance() > threshold()"})
	e := newEngine(t, Options{})
	e.RegisterFunc("threshold", func([]value.Value) (value.Value, error) {
		return value.Int(1500), nil
	})
	oid := setup(t, e, cls, impl, "Rich")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(100)) // 1100: below
		tx.Call(oid, "deposit", value.Int(600)) // 1700: above
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("fires = %d", rec.count())
	}
}

func TestCheckpointAndReopenEngine(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oid store.OID
	e.Transact(func(tx *Tx) error {
		oid, _ = tx.NewObject("account", map[string]value.Value{"balance": value.Int(5)})
		return nil
	})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	r, err := e2.Store().Get(oid)
	if err != nil || !field(r, "balance").Equal(value.Int(5)) {
		t.Fatalf("checkpointed object: %+v, %v", r, err)
	}
}

func TestBindActionForms(t *testing.T) {
	rec := &recorder{}
	e := newEngine(t, Options{})
	cls, impl := accountClass(rec)
	// A schema trigger with an evlang-declared action string routes
	// through the engine's bindAction: method-call form.
	called := 0
	impl.Methods["poke"] = func(*MethodCtx) (value.Value, error) { called++; return value.Null(), nil }
	cls.Methods = append(cls.Methods, schema.Method{Name: "poke", Mode: schema.ModeUpdate})
	cls.Triggers = append(cls.Triggers,
		schema.Trigger{Name: "ByName", Perpetual: true, Event: "after withdraw"})
	impl.Actions["ByName"] = func(*ActionCtx) error { rec.add("ByName"); return nil }
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oid store.OID
	e.Transact(func(tx *Tx) error {
		oid, _ = tx.NewObject("account", nil)
		return tx.Activate(oid, "ByName")
	})
	e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(1))
		return err
	})
	if rec.count() != 1 {
		t.Fatal("named action binding failed")
	}
}

func TestMaskFieldAccessErrors(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Bad", Perpetual: true, Event: "after deposit(n) && n.field > 1"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Bad")
	// n is an int, not an object reference: field access must error and
	// abort the transaction.
	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err == nil {
		t.Fatal("field access on int accepted")
	}
}

func TestTxIDAndDependOn(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	setup(t, e, cls, impl)

	t1 := e.Begin()
	t2 := e.Begin()
	if t1.ID() == t2.ID() || t1.ID() == 0 {
		t.Fatal("transaction ids")
	}
	t2.DependOn(t1)
	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()
	select {
	case <-done:
		t.Fatal("dependent committed before dependency")
	case <-time.After(20 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRearmTimersSkipsInactive(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T", Perpetual: true, Event: "at time(HR=17)"})
	e, _ := New(Options{Dir: dir, Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var a, b store.OID
	e.Transact(func(tx *Tx) error {
		a, _ = tx.NewObject("account", nil)
		b, _ = tx.NewObject("account", nil)
		tx.Activate(a, "T")
		tx.Activate(b, "T")
		return tx.Deactivate(b, "T")
	})
	e.Close()

	rec2 := &recorder{}
	cls2, impl2 := accountClass(rec2,
		schema.Trigger{Name: "T", Perpetual: true, Event: "at time(HR=17)"})
	e2, _ := New(Options{Dir: dir, Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	defer e2.Close()
	if _, err := e2.RegisterClass(cls2, impl2, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.RearmTimers(); err != nil {
		t.Fatal(err)
	}
	e2.Clock().Advance(10 * time.Hour)
	if rec2.count() != 1 {
		t.Fatalf("rearm fired %d times, want 1 (only the active instance)", rec2.count())
	}
	_ = a
	_ = b
}

func TestAbortedActivationDisarmsTimers(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl) // created, NOT activated

	// Activation inside an aborted transaction must leave no live
	// timer behind.
	e.Transact(func(tx *Tx) error {
		if err := tx.Activate(oid, "Daily"); err != nil {
			return err
		}
		return errors.New("abort")
	})
	e.Clock().Advance(48 * time.Hour)
	if rec.count() != 0 {
		t.Fatalf("timer of rolled-back activation fired %d times", rec.count())
	}
	if got := e.Clock().Pending(); got != 0 {
		t.Fatalf("%d stale timers pending", got)
	}
}

func TestAbortedDeactivationRearmsTimers(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl, "Daily")

	// Deactivation inside an aborted transaction: the trigger stays
	// active, so its timer must survive (be re-armed).
	e.Transact(func(tx *Tx) error {
		if err := tx.Deactivate(oid, "Daily"); err != nil {
			return err
		}
		return errors.New("abort")
	})
	e.Clock().Advance(10 * time.Hour) // past 17:00
	if rec.count() != 1 {
		t.Fatalf("trigger fired %d times after rolled-back deactivation", rec.count())
	}
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
}

func TestAbortedCreationWithTimersLeavesNothingPending(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	e.Transact(func(tx *Tx) error {
		oid, err := tx.NewObject("account", nil)
		if err != nil {
			return err
		}
		if err := tx.Activate(oid, "Daily"); err != nil {
			return err
		}
		return errors.New("abort")
	})
	if got := e.Clock().Pending(); got != 0 {
		t.Fatalf("%d timers pending for a rolled-back creation", got)
	}
	e.Clock().Advance(48 * time.Hour)
	if rec.count() != 0 || len(e.TimerErrors()) != 0 {
		t.Fatalf("phantom fires %d, errs %v", rec.count(), e.TimerErrors())
	}
}

// TestActionParamsByName: the record holds activation parameters in
// declared order only; an action still sees them by declared name,
// re-activation replaces them, and a trigger that declares none gets a
// nil map.
func TestActionParamsByName(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Over", Perpetual: true, Event: "after deposit(n) && n > lim && n > floor",
			Params: []schema.Param{{Name: "lim", Kind: value.KindInt}, {Name: "floor", Kind: value.KindInt}}},
		schema.Trigger{Name: "Any", Perpetual: true, Event: "after deposit"})
	var over, anyDep []map[string]value.Value
	impl.Actions["Over"] = func(ctx *ActionCtx) error { over = append(over, ctx.Params()); return nil }
	impl.Actions["Any"] = func(ctx *ActionCtx) error { anyDep = append(anyDep, ctx.Params()); return nil }
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Any")
	do := func(fn func(tx *Tx) error) {
		t.Helper()
		if err := e.Transact(fn); err != nil {
			t.Fatal(err)
		}
	}
	deposit := func(n int64) {
		t.Helper()
		do(func(tx *Tx) error { _, err := tx.Call(oid, "deposit", value.Int(n)); return err })
	}
	do(func(tx *Tx) error { return tx.Activate(oid, "Over", value.Int(100), value.Int(5)) })
	deposit(200)
	do(func(tx *Tx) error { return tx.Activate(oid, "Over", value.Int(300), value.Int(7)) })
	deposit(200) // below the new limit
	deposit(400)
	want := []map[string]value.Value{
		{"lim": value.Int(100), "floor": value.Int(5)},
		{"lim": value.Int(300), "floor": value.Int(7)},
	}
	if !reflect.DeepEqual(over, want) {
		t.Fatalf("Over saw parameters %v, want %v", over, want)
	}
	if len(anyDep) != 3 || anyDep[0] != nil {
		t.Fatalf("parameterless trigger saw %v, want three nil maps", anyDep)
	}
}
