package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/fault"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// The tests here pin that "after tcommit" is a phase of the committing
// transaction (Tx.Commit): posted under its locks, committed in its one
// frame, and rolled back alone when it aborts.

// outcomeClass is an account whose commit outcome writes a field: Stamp
// sets owner to "stamped" at the after tcommit of every transaction
// that leaves the balance above 5000. ComC and WholeC observe after
// tcommit in the two history views without firing on it.
func outcomeClass(rec *recorder, extra ...schema.Trigger) (*schema.Class, ClassImpl) {
	triggers := append([]schema.Trigger{
		{Name: "Stamp", Perpetual: true, Event: "after tcommit && balance > 5000"},
		{Name: "ComC", Perpetual: true, Event: "relative(after tcommit, after withdraw)"},
		{Name: "WholeC", Perpetual: true, Event: "relative(after tcommit, after withdraw)", View: schema.WholeView},
	}, extra...)
	cls, impl := accountClass(rec, triggers...)
	impl.Actions["Stamp"] = func(ctx *ActionCtx) error {
		rec.add("Stamp")
		return ctx.Tx.Set(ctx.Self, "owner", value.Str("stamped"))
	}
	return cls, impl
}

// reopen opens an engine on dir again, with cls registered.
func reopen(t *testing.T, dir string, cls *schema.Class, impl ClassImpl) *Engine {
	t.Helper()
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCommitSucceedsWhenItsOutcomeAborts: an outcome phase that aborts —
// an action's tabort, an action's error — is rolled back to its
// savepoint alone. Commit reports the transaction's own effects as
// committed (a caller that retried on an error would apply them twice),
// the outcome's write and firings are gone, a committed-view observer of
// after tcommit is back where the savepoint had it and a whole-view one
// keeps its step; all of it durable across a reopen.
func TestCommitSucceedsWhenItsOutcomeAborts(t *testing.T) {
	boom := errors.New("boom")
	for _, veto := range []error{ErrTabort, boom} {
		t.Run(veto.Error(), func(t *testing.T) {
			dir := t.TempDir()
			rec := &recorder{}
			cls, impl := outcomeClass(rec, schema.Trigger{Name: "Veto", Perpetual: true, Event: "after tcommit && balance > 5000"})
			impl.Actions["Veto"] = func(ctx *ActionCtx) error {
				rec.add("Veto")
				return veto
			}
			e := newEngine(t, Options{Dir: dir})
			oid := setup(t, e, cls, impl, "Stamp", "Veto")
			start, _, err := e.TriggerState(oid, "ComC")
			if err != nil {
				t.Fatal(err)
			}
			sysTx := e.Stats().SystemTx

			tx := e.Begin()
			if _, err := tx.Call(oid, "deposit", value.Int(10000)); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"ComC", "WholeC"} {
				if err := tx.Activate(oid, name); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit = %v, want nil: the transaction's own part committed", err)
			}
			if got := rec.list(); len(got) != 2 || got[0] != "Stamp" || got[1] != "Veto" {
				t.Fatalf("actions run = %v, want [Stamp Veto]", got)
			}
			if errs := e.TimerErrors(); len(errs) != 1 || !errors.Is(errs[0], veto) {
				t.Fatalf("TimerErrors = %v, want the outcome's %v", errs, veto)
			}
			if got := e.Stats().SystemTx - sysTx; got != 1 {
				t.Errorf("SystemTx grew by %d, want 1 (the outcome phase)", got)
			}

			check := func(e *Engine, when string) {
				t.Helper()
				img, ok := e.Store().GetCommitted(oid)
				if !ok {
					t.Fatalf("%s: object %d has no committed image", when, oid)
				}
				if b := field(img, "balance").AsInt(); b != 11000 {
					t.Errorf("%s: balance = %d, want 11000: the user's deposit is lost", when, b)
				}
				if o := field(img, "owner"); !o.IsNull() {
					t.Errorf("%s: owner = %v, want null: the aborted outcome's write survived", when, o)
				}
				if st, active, _ := e.TriggerState(oid, "ComC"); st != start || !active {
					t.Errorf("%s: committed-view ComC state %d (active %v), want the savepoint's %d", when, st, active, start)
				}
				if st, active, _ := e.TriggerState(oid, "WholeC"); st == start || !active {
					t.Errorf("%s: whole-view WholeC state %d (active %v): its after-tcommit step was lost", when, st, active)
				}
				feed, _ := e.FiringsAfter(0, 0)
				for _, fr := range feed {
					if fr.Kind == "after tcommit" {
						t.Errorf("%s: the aborted outcome's firing %s is on the feed", when, fr.Trigger)
					}
				}
			}
			check(e, "live")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = reopen(t, dir, cls, impl)
			defer e.Close()
			check(e, "reopened")
		})
	}
}

// TestFaultCrashAroundMergedFrame: a transaction and its outcome phase
// are one WAL frame, so a crash on either side of its sync recovers both
// parts — the user's deposit and the outcome's stamp and firing — or
// neither; never one without the other.
func TestFaultCrashAroundMergedFrame(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  func(*fault.Registry)
		want string // "both", "neither" or "" (either)
	}{
		{"before write", func(r *fault.Registry) { r.ArmNext(fault.WALWrite) }, "neither"},
		{"torn write", func(r *fault.Registry) { r.ArmNextTear(fault.WALWrite, 9) }, "neither"},
		{"sync", func(r *fault.Registry) { r.ArmNext(fault.WALSync) }, ""},
		{"after sync", func(r *fault.Registry) { r.ArmNext(fault.WALAfterSync) }, "both"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			rec := &recorder{}
			cls, impl := outcomeClass(rec)
			reg := fault.New()
			reg.FailStop()
			e := newEngine(t, Options{Dir: dir, Faults: reg})
			oid := setup(t, e, cls, impl, "Stamp")
			c.arm(reg)
			err := e.Transact(func(tx *Tx) error {
				_, err := tx.Call(oid, "deposit", value.Int(10000))
				return err
			})
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Commit = %v, want the injected fault", err)
			}
			if rec.count() != 1 {
				t.Fatalf("Stamp ran %d times, want 1: the crash did not hit a frame with an outcome", rec.count())
			}
			e.Close() // the crash: what the log holds is what recovery sees

			e = reopen(t, dir, cls, impl)
			defer e.Close()
			img, _ := e.Store().GetCommitted(oid)
			user := field(img, "balance").AsInt() == 11000
			outcome := !field(img, "owner").IsNull()
			feed, _ := e.FiringsAfter(0, 0)
			if outcome != (len(feed) == 1) {
				t.Fatalf("owner stamped %v, but the feed holds %d firings", outcome, len(feed))
			}
			got := map[[2]bool]string{{true, true}: "both", {false, false}: "neither"}[[2]bool{user, outcome}]
			switch {
			case got == "":
				t.Fatalf("recovered the user's part %v and the outcome's %v: the frame split", user, outcome)
			case c.want != "" && got != c.want:
				t.Fatalf("recovered %s parts, want %s", got, c.want)
			}
		})
	}
}

// TestNoReaderSeesACommitWithoutItsOutcome (run under -race): lock-free
// readers of committed state — GetCommitted and Explain — never see a
// transaction's commit without its after-tcommit step. InTx sits in its
// "inside a transaction" state from the tbegin to the tcommit, which a
// committed image could show only if the outcome were published apart
// from the commit.
func TestNoReaderSeesACommitWithoutItsOutcome(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "InTx", Perpetual: true, Event: "fa(after tbegin, after tcommit, after tbegin)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "InTx")
	slot := e.Class("account").Trigger("InTx").slot

	probe := e.Begin()
	if _, err := probe.Call(oid, "deposit", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	inside, _, _ := e.TriggerState(oid, "InTx")
	if err := probe.Abort(); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := e.TriggerState(oid, "InTx"); after == inside {
		t.Fatalf("InTx is in state %d inside a transaction and outside one: the test proves nothing", inside)
	}

	var stop atomic.Bool
	var seen atomic.Int64
	var wg, ready sync.WaitGroup // ready: each reader has read once
	for r := 0; r < 2; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(explain bool) {
			defer wg.Done()
			first := true
			defer func() {
				if first { // returned before its first read
					ready.Done()
				}
			}()
			for !stop.Load() {
				st := 0
				if explain {
					ex, err := e.Explain("InTx", oid)
					if err != nil {
						t.Error(err)
						return
					}
					st = ex.State
				} else {
					img, _ := e.Store().GetCommitted(oid)
					st = int(img.Trig(slot).State)
				}
				if st == inside {
					t.Errorf("a reader saw InTx in state %d: a commit published without its after tcommit", st)
					return
				}
				seen.Add(1)
				if first {
					first = false
					ready.Done()
				}
			}
		}(r == 1)
	}
	// The writer starts only once both readers run: its 300 transactions
	// can otherwise finish before either is scheduled.
	ready.Wait()
	for i := 0; i < 300; i++ {
		if err := e.Transact(func(tx *Tx) error {
			_, err := tx.Call(oid, "deposit", value.Int(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if seen.Load() == 0 {
		t.Fatal("the readers never ran")
	}
}

// TestBlockedTransactionRunsAfterTheOutcome: the outcome phase inherits
// its transaction's locks, so a transaction blocked on an object gets it
// only after the outcome committed — never between a commit and its
// after tcommit. The outcome reaches the object late: Stamp fires on
// another object and dawdles before it writes this one, which gives the
// blocked transaction every chance to slip in if the lock were free.
func TestBlockedTransactionRunsAfterTheOutcome(t *testing.T) {
	rec := &recorder{}
	cls, impl := outcomeClass(rec)
	var other store.OID
	impl.Actions["Stamp"] = func(ctx *ActionCtx) error {
		time.Sleep(20 * time.Millisecond)
		return ctx.Tx.Set(other, "owner", value.Str("stamped"))
	}
	e := newEngine(t, Options{})
	rich := setup(t, e, cls, impl, "Stamp")
	if err := e.Transact(func(tx *Tx) (err error) {
		other, err = tx.NewObject("account", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	tx := e.Begin()
	if _, err := tx.Call(rich, "deposit", value.Int(10000)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(other, "owner"); err != nil {
		t.Fatal(err)
	}
	got := make(chan value.Value, 1)
	go func() {
		var owner value.Value
		if err := e.Transact(func(b *Tx) (err error) {
			owner, err = b.Get(other, "owner")
			return err
		}); err != nil {
			t.Error(err)
		}
		got <- owner
	}()
	time.Sleep(10 * time.Millisecond) // let the second transaction block on other's lock
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if owner := <-got; owner.IsNull() {
		t.Fatal("the blocked transaction read other's owner unset: it ran between the commit and its outcome")
	}
}

// The tests below pin that "after tabort" is a phase of the aborting
// transaction too: the rollback to its begin, the outcome phase and one
// commit of both, under the same locks.

// abortClass is an account whose abort keeps state and has a moving
// after-tabort observer: Two moves on every withdraw, kept across the
// rollback, AbC moves on after tabort and Stamp sets owner to "stamped"
// there. All three are whole-view: a committed-view trigger never sees a
// tabort (§6).
func abortClass(rec *recorder, extra ...schema.Trigger) (*schema.Class, ClassImpl) {
	cls, impl := accountClass(rec, append([]schema.Trigger{wholeTwo,
		{Name: "AbC", Perpetual: true, Event: "relative(after tabort, after withdraw)", View: schema.WholeView},
		{Name: "Stamp", Perpetual: true, Event: "after tabort", View: schema.WholeView}}, extra...)...)
	impl.Actions["Stamp"] = func(ctx *ActionCtx) error {
		return ctx.Tx.Set(ctx.Self, "owner", value.Str("stamped"))
	}
	return cls, impl
}

// TestAbortIsOneFrame: what the rollback kept and what the after-tabort
// outcome did are logged in one WAL frame with one sync, and a reopen has
// both.
func TestAbortIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	cls, impl := abortClass(&recorder{})
	reg := fault.New()
	e := newEngine(t, Options{Dir: dir, Faults: reg})
	oid := setup(t, e, cls, impl, "Two", "AbC", "Stamp")
	two, _, _ := e.TriggerState(oid, "Two")
	abc, _, _ := e.TriggerState(oid, "AbC")
	writes, syncs := reg.Consults(fault.WALWrite), reg.Consults(fault.WALSync)
	withdrawThenAbort(t, e, oid)
	if w, s := reg.Consults(fault.WALWrite)-writes, reg.Consults(fault.WALSync)-syncs; w != 1 || s != 1 {
		t.Fatalf("an abort wrote %d frames and synced %d times, want 1 and 1", w, s)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		if st, _, _ := e.TriggerState(oid, "Two"); st == two {
			t.Errorf("%s: whole-view Two is back in state %d: the carry was lost", when, st)
		}
		if st, _, _ := e.TriggerState(oid, "AbC"); st == abc {
			t.Errorf("%s: AbC is still in state %d: the after-tabort step was lost", when, st)
		}
		img, _ := e.Store().GetCommitted(oid)
		if b := field(img, "balance").AsInt(); b != 1000 {
			t.Errorf("%s: balance %d, want the rolled-back 1000", when, b)
		}
		if o := field(img, "owner"); !o.Equal(value.Str("stamped")) {
			t.Errorf("%s: owner = %v: the after-tabort write was lost", when, o)
		}
	}
	check(e, "live")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = reopen(t, dir, cls, impl)
	defer e.Close()
	check(e, "reopened")
}

// TestAbortOutcomeThatAbortsKeepsTheCarry: an after-tabort phase that
// aborts — an action's tabort, an action's error — rolls back to its own
// savepoint: Stamp's write is gone, what the rollback kept and what AbC
// saw of the phase commit alone, Abort reports nothing and the cause goes
// to TimerErrors.
func TestAbortOutcomeThatAbortsKeepsTheCarry(t *testing.T) {
	boom := errors.New("boom")
	for _, veto := range []error{ErrTabort, boom} {
		t.Run(veto.Error(), func(t *testing.T) {
			dir := t.TempDir()
			rec := &recorder{}
			cls, impl := abortClass(rec, schema.Trigger{Name: "VetoA", Perpetual: true, Event: "after tabort", View: schema.WholeView})
			impl.Actions["VetoA"] = func(*ActionCtx) error { return veto }
			e := newEngine(t, Options{Dir: dir})
			oid := setup(t, e, cls, impl, "Two", "AbC", "Stamp", "VetoA")
			two, _, _ := e.TriggerState(oid, "Two")
			abc, _, _ := e.TriggerState(oid, "AbC")
			withdrawThenAbort(t, e, oid)
			if errs := e.TimerErrors(); len(errs) != 1 || !errors.Is(errs[0], veto) {
				t.Fatalf("TimerErrors = %v, want the outcome's %v", errs, veto)
			}
			check := func(e *Engine, when string) {
				t.Helper()
				img, _ := e.Store().GetCommitted(oid)
				if o := field(img, "owner"); !o.IsNull() {
					t.Errorf("%s: owner = %v: the aborted outcome's write survived", when, o)
				}
				if st, _, _ := e.TriggerState(oid, "Two"); st == two {
					t.Errorf("%s: whole-view Two is back in state %d: the carry was lost", when, st)
				}
				if st, _, _ := e.TriggerState(oid, "AbC"); st == abc {
					t.Errorf("%s: whole-view AbC is still in state %d: its step in the phase was lost", when, st)
				}
			}
			check(e, "live")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = reopen(t, dir, cls, impl)
			defer e.Close()
			check(e, "reopened")
		})
	}
}

// TestBlockedTransactionRunsAfterTheAbortOutcome: the after-tabort phase
// keeps the aborting transaction's locks, so a transaction blocked on an
// object gets it only after the outcome committed — never between an
// abort and its after tabort. The outcome reaches the object late: Stamp
// fires on another object and dawdles before it writes this one.
func TestBlockedTransactionRunsAfterTheAbortOutcome(t *testing.T) {
	var other store.OID
	cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Stamp", Perpetual: true, Event: "after tabort", View: schema.WholeView})
	impl.Actions["Stamp"] = func(ctx *ActionCtx) error {
		time.Sleep(20 * time.Millisecond)
		return ctx.Tx.Set(other, "owner", value.Str("stamped"))
	}
	e := newEngine(t, Options{})
	rich := setup(t, e, cls, impl, "Stamp")
	if err := e.Transact(func(tx *Tx) (err error) {
		other, err = tx.NewObject("account", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	tx := e.Begin()
	if _, err := tx.Call(rich, "deposit", value.Int(10000)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(other, "owner"); err != nil {
		t.Fatal(err)
	}
	got := make(chan value.Value, 1)
	go func() {
		var owner value.Value
		if err := e.Transact(func(b *Tx) (err error) {
			owner, err = b.Get(other, "owner")
			return err
		}); err != nil {
			t.Error(err)
		}
		got <- owner
	}()
	time.Sleep(10 * time.Millisecond) // let the second transaction block on other's lock
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if owner := <-got; owner.IsNull() {
		t.Fatal("the blocked transaction read other's owner unset: it ran between the abort and its outcome")
	}
}
