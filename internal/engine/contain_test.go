package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// The tests here pin that user code cannot take the process down: a
// panic in a method body or a trigger action, or a cascade that does not
// end, aborts its transaction and nothing else.

// within runs fn and fails the test if it does not return in 2 s: a
// transaction that leaked its locks blocks the next one forever.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2 s: the failed transaction kept its locks", what)
		return nil
	}
}

// deposit runs one deposit of n on oid in a transaction of its own.
func deposit(e *Engine, oid store.OID, method string, n int64) error {
	return e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, method, value.Int(n))
		return err
	})
}

// TestPanicAbortsItsTransaction: a panic in an action or a method body
// becomes a *PanicError naming the class, the trigger or method, the
// value and the stack; the transaction is rolled back and its locks
// released, so the next transaction on the object runs.
func TestPanicAbortsItsTransaction(t *testing.T) {
	for _, single := range []bool{false, true} {
		cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Boom", Perpetual: true, Event: "after deposit(amount) && amount == 13"})
		impl.Actions["Boom"] = func(*ActionCtx) error { panic("boom") }
		impl.Methods["withdraw"] = func(*MethodCtx) (value.Value, error) { panic("bust") }
		e := newEngine(t, Options{SingleWriter: single})
		oid := setup(t, e, cls, impl, "Boom")
		for _, c := range []struct{ method, kind, name, value string }{
			{"deposit", "trigger", "Boom", "boom"},
			{"withdraw", "method", "withdraw", "bust"},
		} {
			var pe *PanicError
			if err := deposit(e, oid, c.method, 13); !errors.As(err, &pe) {
				t.Fatalf("single=%v %s: err = %v, want a *PanicError", single, c.method, err)
			}
			if pe.Class != "account" || pe.Kind != c.kind || pe.Name != c.name || pe.Value != c.value || len(pe.Stack) == 0 {
				t.Fatalf("single=%v: PanicError %s %s.%s value %v, %d stack bytes", single, pe.Kind, pe.Class, pe.Name, pe.Value, len(pe.Stack))
			}
			if err := within(t, "the next transaction", func() error { return deposit(e, oid, "deposit", 1) }); err != nil {
				t.Fatal(err)
			}
		}
		img, _ := e.Store().GetCommitted(oid)
		if b := field(img, "balance").AsInt(); b != 1002 {
			t.Fatalf("single=%v: balance %d, want 1002: only the two clean deposits", single, b)
		}
	}
}

// TestPanicInOutcomeRollsBackOnlyTheOutcome: an after-tcommit action
// that panics aborts the outcome phase alone; the commit stands.
func TestPanicInOutcomeRollsBackOnlyTheOutcome(t *testing.T) {
	cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Boom", Perpetual: true, Event: "after tcommit"})
	impl.Actions["Boom"] = func(*ActionCtx) error { panic("boom") }
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Boom") // whose own outcome fires Boom once
	if err := deposit(e, oid, "deposit", 5); err != nil {
		t.Fatalf("Commit = %v, want nil: the transaction's own part committed", err)
	}
	var pe *PanicError
	if errs := e.TimerErrors(); len(errs) != 2 || !errors.As(errs[1], &pe) || pe.Name != "Boom" {
		t.Fatalf("TimerErrors = %v, want the two outcomes' panics", errs)
	}
	if img, _ := e.Store().GetCommitted(oid); field(img, "balance").AsInt() != 1005 {
		t.Fatalf("balance %v, want 1005", field(img, "balance"))
	}
}

// TestRunawayCascadeIsBounded: an action that calls the method firing it
// recurses until ErrCascadeDepth — not until Go's stack limit kills the
// process — names the chain, and aborts only its transaction.
func TestRunawayCascadeIsBounded(t *testing.T) {
	for _, single := range []bool{false, true} {
		cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Again", Perpetual: true, Event: "after deposit"})
		impl.Actions["Again"] = func(ctx *ActionCtx) error {
			_, err := ctx.Tx.Call(ctx.Self, "deposit", value.Int(1))
			return err
		}
		e := newEngine(t, Options{SingleWriter: single})
		oid := setup(t, e, cls, impl, "Again")
		err := deposit(e, oid, "deposit", 1)
		if !errors.Is(err, ErrCascadeDepth) || !strings.Contains(err.Error(), "method account.deposit ← trigger account.Again ← trigger account.Again") {
			t.Fatalf("single=%v: err = %v, want ErrCascadeDepth naming the chain", single, err)
		}
		if err := within(t, "the next transaction", func() error { return deposit(e, oid, "withdraw", 10) }); err != nil {
			t.Fatal(err)
		}
		if img, _ := e.Store().GetCommitted(oid); field(img, "balance").AsInt() != 990 {
			t.Fatalf("single=%v: balance %v, want 990: nothing of the cascade", single, field(img, "balance"))
		}
	}
}

// TestPanicOutsideActionsAbortsItsTransaction: a panic in Transact's own
// fn, after it wrote a field, and one in a mask function during a
// top-level Call both abort their transaction; with locks or without
// (single-writer), the next transaction on the object starts from the
// committed state, not from the failed one's writes.
func TestPanicOutsideActionsAbortsItsTransaction(t *testing.T) {
	for _, single := range []bool{false, true} {
		cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Odd", Perpetual: true, Event: "after deposit(amount) && odd(amount)"})
		impl.Funcs = map[string]MaskFunc{"odd": func(args []value.Value) (value.Value, error) {
			if args[0].AsInt() == 13 {
				panic("unlucky")
			}
			return value.Bool(args[0].AsInt()%2 == 1), nil
		}}
		e := newEngine(t, Options{SingleWriter: single})
		oid := setup(t, e, cls, impl, "Odd")
		var pe *PanicError
		err := e.Transact(func(tx *Tx) error {
			if err := tx.Set(oid, "balance", value.Int(99)); err != nil {
				return err
			}
			panic("closure")
		})
		if !errors.As(err, &pe) || pe.Kind != "transaction" || pe.Value != "closure" || err.Error() != "engine: panic in transaction: closure" {
			t.Fatalf("single=%v: Transact = %v, want a *PanicError of Kind transaction", single, err)
		}
		if err := within(t, "the next transaction", func() error { return deposit(e, oid, "deposit", 1) }); err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		if _, err := tx.Call(oid, "deposit", value.Int(13)); !errors.As(err, &pe) || pe.Kind != "function" || pe.Class != "account" || pe.Name != "odd" {
			t.Fatalf("single=%v: Call = %v, want odd's *PanicError", single, err)
		}
		if err := tx.Commit(); !errors.Is(err, txn.ErrNotActive) {
			t.Fatalf("single=%v: Commit after the panic = %v, want ErrNotActive: the Call aborted", single, err)
		}
		if err := within(t, "the next transaction", func() error { return deposit(e, oid, "deposit", 2) }); err != nil {
			t.Fatal(err)
		}
		if img, _ := e.Store().GetCommitted(oid); field(img, "balance").AsInt() != 1003 {
			t.Fatalf("single=%v: balance %v, want 1003: only the two clean deposits", single, field(img, "balance"))
		}
	}
}
