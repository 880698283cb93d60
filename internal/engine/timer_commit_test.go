package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// The tests here pin that the timer schedule follows commits: what a
// transaction does to the schedule takes effect when, and only if, it
// commits — under its locks, so no other transaction gets in between.

var eightAM = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

// newTimed opens an engine at 08:00 with an account class of a
// periodic, a calendar and a one-shot trigger — whose actions record
// their name and the instant — plus extra, bound to actions where given,
// and one object with the given triggers active.
func newTimed(t *testing.T, rec *recorder, extra []schema.Trigger, actions map[string]ActionFunc, activate ...string) (*Engine, store.OID) {
	t.Helper()
	cls, impl := accountClass(rec, append([]schema.Trigger{
		{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"},
		{Name: "Once", Event: "after time(M=30)"},
	}, extra...)...)
	e := newEngine(t, Options{Start: eightAM})
	for _, name := range []string{"Tick", "Daily", "Once"} {
		impl.Actions[name] = func(*ActionCtx) error {
			rec.add(name + "@" + e.Clock().Now().Format("15:04"))
			return nil
		}
	}
	for name, act := range actions {
		impl.Actions[name] = act
	}
	return e, setup(t, e, cls, impl, activate...)
}

// scheduled lists the triggers in the shared schedule of oid.
func scheduled(e *Engine, oid store.OID) []string {
	var out []string
	for _, s := range e.TimerSchedule() {
		if f := strings.Fields(s); f[0] == fmt.Sprint(oid) {
			out = append(out, f[len(f)-1])
		}
	}
	return out
}

// TestQueuedActivateAfterAbortKeepsSchedule: T1 activates X and aborts;
// T2, queued on X's lock, activates X as soon as the lock is granted and
// commits after T1's Abort has returned. The schedule must hold T2's
// activation: nothing T1 does after releasing its locks may undo it.
func TestQueuedActivateAfterAbortKeepsSchedule(t *testing.T) {
	rec := &recorder{}
	e, x := newTimed(t, rec, nil, nil)
	t1 := e.Begin()
	if err := t1.Activate(x, "Daily"); err != nil {
		t.Fatal(err)
	}
	aborted, done := make(chan struct{}), make(chan error, 1)
	go func() {
		t2 := e.Begin()
		if err := t2.Activate(x, "Daily"); err != nil {
			done <- err
			return
		}
		<-aborted
		done <- t2.Commit()
	}()
	// T2 is queued: x's lock word shows a waiter (bit 0, package txn's waitBit).
	for deadline := time.Now().Add(10 * time.Second); e.st.LockWord(x).Load()&1 == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("T2 never queued on x")
		}
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	close(aborted)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, active, _ := e.TriggerState(x, "Daily"); !active {
		t.Fatal("T2's activation did not commit")
	}
	if got := scheduled(e, x); fmt.Sprint(got) != "[Daily]" {
		t.Fatalf("schedule of x = %v, want [Daily]: the committed activation", got)
	}
}

// TestReactivatedAfterRestartsItsDeadline: re-activating an active
// 'after' trigger restarts its period from the new activation.
func TestReactivatedAfterRestartsItsDeadline(t *testing.T) {
	rec := &recorder{}
	e, oid := newTimed(t, rec, nil, nil, "Once")
	e.Clock().Advance(20 * time.Minute)
	if err := e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Once") }); err != nil {
		t.Fatal(err)
	}
	e.Clock().Advance(2 * time.Hour)
	if got := rec.list(); fmt.Sprint(got) != "[Once@08:50]" {
		t.Fatalf("firings = %v, want [Once@08:50]: 30 minutes after the re-activation", got)
	}
}

// TestAbortedDeactivateKeepsAfterDeadline: a Deactivate or DeleteObject
// that aborts leaves the 'after' one-shot due when it was.
func TestAbortedDeactivateKeepsAfterDeadline(t *testing.T) {
	boom := errors.New("boom")
	for name, undo := range map[string]func(*Tx, store.OID) error{
		"Deactivate":   func(tx *Tx, oid store.OID) error { return tx.Deactivate(oid, "Once") },
		"DeleteObject": func(tx *Tx, oid store.OID) error { return tx.DeleteObject(oid) },
	} {
		t.Run(name, func(t *testing.T) {
			rec := &recorder{}
			e, oid := newTimed(t, rec, nil, nil, "Once")
			e.Clock().Advance(20 * time.Minute)
			err := e.Transact(func(tx *Tx) error {
				if err := undo(tx, oid); err != nil {
					return err
				}
				return boom
			})
			if err != boom {
				t.Fatalf("Transact = %v, want %v", err, boom)
			}
			e.Clock().Advance(2 * time.Hour)
			if got := rec.list(); fmt.Sprint(got) != "[Once@08:30]" {
				t.Fatalf("firings = %v, want [Once@08:30]: the deadline of the activation", got)
			}
		})
	}
}

// TestTimerIntentsFollowOutcomes: the outcome phase and the dependency
// rule keep and drop timer changes exactly as they keep and drop
// writes. OnAbort (whole view: a committed-view trigger never sees a
// tabort) activates Daily in the after-tabort phase; Veto activates
// Daily in the after-tcommit phase and then fails it.
func TestTimerIntentsFollowOutcomes(t *testing.T) {
	boom := errors.New("boom")
	extra := []schema.Trigger{
		{Name: "OnAbort", Perpetual: true, Event: "after tabort", View: schema.WholeView},
		{Name: "Veto", Perpetual: true, Event: "after tcommit && balance > 5000"},
	}
	actions := map[string]ActionFunc{
		"OnAbort": func(ctx *ActionCtx) error { return ctx.Tx.Activate(ctx.Self, "Daily") },
		"Veto": func(ctx *ActionCtx) error {
			if err := ctx.Tx.Activate(ctx.Self, "Daily"); err != nil {
				return err
			}
			return boom
		},
	}
	for _, c := range []struct {
		name     string
		activate []string
		run      func(t *testing.T, e *Engine, oid store.OID)
		want     string // the shared schedule of oid
	}{{
		name:     "after tabort activation kept, aborted body's dropped",
		activate: []string{"OnAbort"},
		run: func(t *testing.T, e *Engine, oid store.OID) {
			err := e.Transact(func(tx *Tx) error {
				if err := tx.Activate(oid, "Tick"); err != nil {
					return err
				}
				return boom
			})
			if err != boom {
				t.Fatalf("Transact = %v, want %v", err, boom)
			}
			if _, active, _ := e.TriggerState(oid, "Daily"); !active {
				t.Fatal("the after-tabort phase's activation did not commit")
			}
		},
		want: "[Daily]",
	}, {
		name:     "rolled-back outcome phase drops its own",
		activate: []string{"Veto"},
		run: func(t *testing.T, e *Engine, oid store.OID) {
			err := e.Transact(func(tx *Tx) error {
				if err := tx.Activate(oid, "Tick"); err != nil {
					return err
				}
				_, err := tx.Call(oid, "deposit", value.Int(10000))
				return err
			})
			if err != nil {
				t.Fatalf("Transact = %v, want nil: the transaction's own part committed", err)
			}
		},
		want: "[Tick]",
	}, {
		name: "aborted commit dependency arms nothing",
		run: func(t *testing.T, e *Engine, oid store.OID) {
			var other store.OID
			if err := e.Transact(func(tx *Tx) (err error) {
				other, err = tx.NewObject("account", nil)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			t1, t2 := e.Begin(), e.Begin()
			if _, err := t1.Call(other, "deposit", value.Int(1)); err != nil {
				t.Fatal(err)
			}
			if err := t2.Activate(oid, "Tick"); err != nil {
				t.Fatal(err)
			}
			t2.DependOn(t1)
			if err := t1.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := t2.Commit(); !errors.Is(err, txn.ErrDependencyAborted) {
				t.Fatalf("Commit = %v, want %v", err, txn.ErrDependencyAborted)
			}
		},
		want: "[]",
	}, {
		name: "after deadline passed while open is delivered by the next Advance",
		run: func(t *testing.T, e *Engine, oid store.OID) {
			tx := e.Begin()
			if err := tx.Activate(oid, "Once"); err != nil {
				t.Fatal(err)
			}
			advanced := make(chan struct{})
			go func() { e.Clock().Advance(40 * time.Minute); close(advanced) }()
			select {
			case <-advanced:
			case <-time.After(5 * time.Second):
				t.Error("Advance blocked on the open transaction")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			<-advanced
			if _, active, _ := e.TriggerState(oid, "Once"); !active {
				t.Fatal("Once fired before its activation committed")
			}
			e.Clock().Advance(time.Minute)
			if _, active, _ := e.TriggerState(oid, "Once"); active {
				t.Fatal("Once did not fire at the first Advance after its commit")
			}
		},
		want: "[]",
	}} {
		t.Run(c.name, func(t *testing.T) {
			rec := &recorder{}
			e, oid := newTimed(t, rec, extra, actions, c.activate...)
			c.run(t, e, oid)
			if got := fmt.Sprint(scheduled(e, oid)); got != c.want {
				t.Fatalf("schedule of the object = %s, want %s", got, c.want)
			}
		})
	}
}
