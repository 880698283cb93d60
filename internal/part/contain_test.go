package part

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ode/internal/engine"
	"ode/internal/schema"
	"ode/internal/value"
)

// TestPanicFailsOnlyItsJob: a panicking action aborts its transaction
// inside the partition's loop, and a job that panics outside any
// transaction fails with the panic as its error; either way the
// partition keeps serving, the object included.
func TestPanicFailsOnlyItsJob(t *testing.T) {
	db, err := Open(Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cls, impl := bankClass(nil, schema.Trigger{Name: "Boom", Perpetual: true, Event: "after deposit(a) && a == 13"})
	impl.Actions["Boom"] = func(*engine.ActionCtx) error { panic("boom") }
	if err := db.Register(func(_ int, e *engine.Engine) error {
		_, err := e.RegisterClass(cls, impl, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	oids := newAccounts(t, db)
	p := 1
	if err := db.Transact(p, func(tx *engine.Tx) error { return tx.Activate(oids[p], "Boom") }); err != nil {
		t.Fatal(err)
	}
	call := func(n int64) error {
		return db.Transact(p, func(tx *engine.Tx) error {
			_, err := tx.Call(oids[p], "deposit", value.Int(n))
			return err
		})
	}
	var pe *engine.PanicError
	if err := call(13); !errors.As(err, &pe) || pe.Name != "Boom" {
		t.Fatalf("err = %v, want Boom's *engine.PanicError", err)
	}
	if err := db.Do(p, func(*engine.Engine) error { panic("job") }); err == nil || !strings.Contains(err.Error(), "job panicked: job") {
		t.Fatalf("a panicking job reported %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- call(1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the partition stopped serving after a panic")
	}
}

// TestPanicInATransactionLeavesNoWrites: partitions run lock-free, so a
// transaction a panic leaves open would hand its writes to the next one.
// A panic in Transact's fn after a write and a mask function panicking
// on a batch's second entry each abort their transaction: the next one
// reads the committed balance.
func TestPanicInATransactionLeavesNoWrites(t *testing.T) {
	db, err := Open(Options{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cls, impl := bankClass(nil, schema.Trigger{Name: "Odd", Perpetual: true, Event: "after deposit(a) && odd(a)"})
	impl.Funcs = map[string]engine.MaskFunc{"odd": func(args []value.Value) (value.Value, error) {
		if args[0].AsInt() == 13 {
			panic("unlucky")
		}
		return value.Bool(args[0].AsInt()%2 == 1), nil
	}}
	if err := db.Register(func(_ int, e *engine.Engine) error {
		_, err := e.RegisterClass(cls, impl, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	oid := newAccounts(t, db)[0]
	if err := db.Transact(0, func(tx *engine.Tx) error { return tx.Activate(oid, "Odd") }); err != nil {
		t.Fatal(err)
	}
	committed := func(what string) {
		t.Helper()
		var b value.Value
		if err := db.Transact(0, func(tx *engine.Tx) (err error) {
			b, err = tx.Get(oid, "balance")
			return err
		}); err != nil || b.AsInt() != 1000 {
			t.Fatalf("after %s: balance %v (%v), want the committed 1000", what, b, err)
		}
	}
	var pe *engine.PanicError
	if err := db.Transact(0, func(tx *engine.Tx) error {
		if err := tx.Set(oid, "balance", value.Int(99)); err != nil {
			return err
		}
		panic("closure")
	}); !errors.As(err, &pe) || pe.Kind != "transaction" {
		t.Fatalf("Transact = %v, want a *engine.PanicError of Kind transaction", err)
	}
	committed("a panicking Transact")
	b := depositBatch(5, oid)
	b.Call(oid, "deposit", value.Int(13))
	if err := db.PostBatch(b); !errors.As(err, &pe) || pe.Kind != "function" || pe.Name != "odd" {
		t.Fatalf("PostBatch = %v, want odd's *engine.PanicError", err)
	}
	committed("a mask function's panic in a batch")
}

// TestPanicWithAnOpenTransactionStopsTheProcess: a job that panics while a
// transaction it began by hand is still open cannot be failed alone — the
// transaction's writes are in the live records — so the panic stops the
// process, in a child test binary here.
func TestPanicWithAnOpenTransactionStopsTheProcess(t *testing.T) {
	if os.Getenv("PART_PANIC_CHILD") == "1" {
		db := openBank(t, 1, "", nil, engine.Options{})
		oid := newAccounts(t, db)[0]
		db.Do(0, func(e *engine.Engine) error {
			tx := e.Begin()
			if err := tx.Set(oid, "balance", value.Int(99)); err != nil {
				return err
			}
			panic("left open")
		})
		t.Fatal("the partition survived a panic with an open transaction")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPanicWithAnOpenTransactionStopsTheProcess$")
	cmd.Env = append(os.Environ(), "PART_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "panic: left open") {
		t.Fatalf("child exited with %v:\n%s", err, out)
	}
}
