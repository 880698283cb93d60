package ode_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ode"
)

// fires is a concurrency-safe firing recorder.
type fires struct {
	mu sync.Mutex
	n  map[string]int
}

func newFires() *fires { return &fires{n: map[string]int{}} }

func (f *fires) action(name string) ode.ActionFunc {
	return func(*ode.ActionCtx) error {
		f.mu.Lock()
		f.n[name]++
		f.mu.Unlock()
		return nil
	}
}

func (f *fires) count(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[name]
}

func openDB(t *testing.T) *ode.Database {
	t.Helper()
	db, err := ode.Open(ode.Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func balanceMethods(b *ode.ClassBuilder) *ode.ClassBuilder {
	return b.
		Field("balance", ode.KindInt, ode.Int(0)).
		Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
			v, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		Update("withdraw", func(ctx *ode.MethodCtx) (ode.Value, error) {
			v, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()-ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		Read("getBalance", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ctx.Get("balance")
		})
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t)
	f := newFires()
	err := balanceMethods(db.NewClass("account")).
		Trigger("Large(): perpetual after withdraw(a) && a > 100 ==> report", f.action("Large")).
		Register()
	if err != nil {
		t.Fatal(err)
	}

	var acct ode.OID
	if err := db.Transact(func(tx *ode.Tx) error {
		var err error
		acct, err = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(500)})
		if err != nil {
			return err
		}
		return tx.Activate(acct, "Large")
	}); err != nil {
		t.Fatal(err)
	}

	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(50))
		tx.Call(acct, "withdraw", ode.Int(200))
		return nil
	})
	if f.count("Large") != 1 {
		t.Fatalf("Large fired %d times", f.count("Large"))
	}

	state, active, err := db.TriggerState(acct, "Large")
	if err != nil || !active {
		t.Fatalf("trigger state: %d %v %v", state, active, err)
	}
}

func TestBuiltinActions(t *testing.T) {
	db := openDB(t)
	logged := 0
	err := balanceMethods(db.NewClass("account")).
		Update("log", func(ctx *ode.MethodCtx) (ode.Value, error) {
			logged++
			return ode.Null(), nil
		}).
		Trigger("T6(): perpetual after withdraw(a) && a > 100 ==> log()", nil).
		Trigger("Block(): perpetual before deposit && n > 9000 ==> tabort", nil).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		tx.Activate(acct, "T6")
		return tx.Activate(acct, "Block")
	})
	db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "withdraw", ode.Int(500))
		return err
	})
	if logged != 1 {
		t.Fatalf("log() ran %d times", logged)
	}
	err = db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "deposit", ode.Int(10000))
		return err
	})
	if !errors.Is(err, ode.ErrTabort) {
		t.Fatalf("tabort builtin: %v", err)
	}
}

func TestDefinesAcrossClasses(t *testing.T) {
	db := openDB(t)
	f := newFires()
	defs := ode.NewDefines().
		Add("dayEnd", "at time(HR=17)").
		Add("dayBegin", "at time(HR=9)")
	err := balanceMethods(db.NewClass("account")).
		Defines(defs).
		Trigger("T3(): perpetual dayEnd ==> summary", f.action("T3")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	err = db.NewClass("vault").
		Field("sealed", ode.KindBool, ode.Bool(false)).
		Update("seal", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("sealed", ode.Bool(true))
		}).
		Defines(defs).
		Trigger("Seal(): perpetual dayEnd ==> seal()", nil).
		Register()
	if err != nil {
		t.Fatal(err)
	}

	var acct, vault ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		vault, _ = tx.NewObject("vault", nil)
		tx.Activate(acct, "T3")
		return tx.Activate(vault, "Seal")
	})
	db.Clock().Advance(10 * time.Hour) // past 17:00
	if f.count("T3") != 1 {
		t.Fatalf("T3 fired %d times", f.count("T3"))
	}
	var sealed ode.Value
	db.Transact(func(tx *ode.Tx) error {
		var err error
		sealed, err = tx.Get(vault, "sealed")
		return err
	})
	if !sealed.AsBool() {
		t.Fatal("vault not sealed at day end")
	}
}

func TestCouplingCombinatorStrings(t *testing.T) {
	got := ode.CouplingImmediateDeferred("after withdraw", "q > 0")
	want := "fa((after withdraw) && q > 0, before tcomplete, after tbegin)"
	if got != want {
		t.Fatalf("ImmediateDeferred = %q", got)
	}
	if s := ode.CouplingImmediateImmediate("after deposit", ""); s != "(after deposit)" {
		t.Fatalf("ImmediateImmediate no-cond = %q", s)
	}
}

// TestCouplingEncodingsCompile: all nine §7 encodings of an E-C-A
// coupling are ordinary event expressions (E6) — each compiles over the
// class alphabet to a small automaton, the masked logical event of
// Immediate-Immediate to two states.
func TestCouplingEncodingsCompile(t *testing.T) {
	cls := &ode.Class{
		Name:   "account",
		Fields: []ode.Field{{Name: "balance", Kind: ode.KindInt, Default: ode.Int(0)}},
		Methods: []ode.Method{
			{Name: "deposit", Params: []ode.Param{ode.P("a", ode.KindInt)}, Mode: ode.ModeUpdate},
			{Name: "withdraw", Params: []ode.Param{ode.P("a", ode.KindInt)}, Mode: ode.ModeUpdate},
		},
	}
	const e, c = "after withdraw(a) && a > 100", "balance < 5000"
	for _, enc := range []struct{ mode, event string }{
		{"Immediate-Immediate", ode.CouplingImmediateImmediate(e, c)},
		{"Immediate-Deferred", ode.CouplingImmediateDeferred(e, c)},
		{"Immediate-Dependent", ode.CouplingImmediateDependent(e, c)},
		{"Immediate-Independent", ode.CouplingImmediateIndependent(e, c)},
		{"Deferred-Immediate", ode.CouplingDeferredImmediate(e, c)},
		{"Deferred-Dependent", ode.CouplingDeferredDependent(e, c)},
		{"Deferred-Independent", ode.CouplingDeferredIndependent(e, c)},
		{"Dependent-Immediate", ode.CouplingDependentImmediate(e, c)},
		{"Independent-Immediate", ode.CouplingIndependentImmediate(e, c)},
	} {
		a, err := ode.CompileEvent(cls, enc.event, nil)
		if err != nil {
			t.Fatalf("%s %q: %v", enc.mode, enc.event, err)
		}
		if a.States < 2 || a.States > 16 {
			t.Errorf("%s: %d states, want 2..16", enc.mode, a.States)
		}
		if enc.mode == "Immediate-Immediate" && a.States != 2 {
			t.Errorf("Immediate-Immediate: %d states, want 2", a.States)
		}
	}
}

// TestCouplingModesEndToEnd registers one trigger per §7 coupling
// encoding and checks when each runs relative to the transaction.
func TestCouplingModesEndToEnd(t *testing.T) {
	db := openDB(t)
	f := newFires()
	ev := "after withdraw(a) && a > 100"
	cond := "balance >= 0"
	b := balanceMethods(db.NewClass("account"))
	for name, expr := range map[string]string{
		"II":   ode.CouplingImmediateImmediate(ev, cond),
		"ID":   ode.CouplingImmediateDeferred(ev, cond),
		"IDep": ode.CouplingImmediateDependent(ev, cond),
		"DI":   ode.CouplingDeferredImmediate(ev, cond),
		"DDep": ode.CouplingDeferredDependent(ev, cond),
		"DepI": ode.CouplingDependentImmediate(ev, cond),
	} {
		b = b.Trigger(name+"(): perpetual "+expr+" ==> act", f.action(name))
	}
	if err := b.Register(); err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(1000)})
		for _, name := range []string{"II", "ID", "IDep", "DI", "DDep", "DepI"} {
			if err := tx.Activate(acct, name); err != nil {
				return err
			}
		}
		return nil
	})

	var midTx map[string]int
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(500))
		midTx = map[string]int{}
		for _, name := range []string{"II", "ID", "IDep", "DI", "DDep", "DepI"} {
			midTx[name] = f.count(name)
		}
		return nil
	})

	// Immediately-coupled condition modes ran mid-transaction; commit-
	// coupled ones did not.
	if midTx["II"] != 1 {
		t.Fatalf("II mid-tx = %d", midTx["II"])
	}
	for _, name := range []string{"ID", "IDep", "DI", "DDep", "DepI"} {
		if midTx[name] != 0 {
			t.Fatalf("%s ran mid-transaction", name)
		}
	}
	// After commit all six ran exactly once.
	for _, name := range []string{"II", "ID", "IDep", "DI", "DDep", "DepI"} {
		if f.count(name) != 1 {
			t.Fatalf("%s = %d after commit", name, f.count(name))
		}
	}

	// An aborted transaction runs only the immediate mode (and its
	// effects are rolled back with the transaction).
	before := f.count("II")
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(500))
		return errors.New("abort")
	})
	if f.count("II") != before+1 {
		t.Fatalf("II after aborted tx = %d", f.count("II"))
	}
	for _, name := range []string{"ID", "IDep", "DI", "DDep", "DepI"} {
		if f.count(name) != 1 {
			t.Fatalf("%s ran for an aborted transaction", name)
		}
	}
}

// TestCouplingIndependentModes checks the abort-side couplings, which
// need the whole-history view.
func TestCouplingIndependentModes(t *testing.T) {
	db := openDB(t)
	f := newFires()
	ev := "after withdraw(a) && a > 100"
	err := balanceMethods(db.NewClass("account")).
		Trigger("IInd(): perpetual "+ode.CouplingImmediateIndependent(ev, "")+" ==> act", f.action("IInd")).
		View("IInd", ode.WholeView).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(1000)})
		return tx.Activate(acct, "IInd")
	})
	// Committed transaction → runs once.
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(500))
		return nil
	})
	if f.count("IInd") != 1 {
		t.Fatalf("IInd after commit = %d", f.count("IInd"))
	}
	// Aborted transaction → also runs (independent coupling).
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(500))
		return errors.New("abort")
	})
	if f.count("IInd") != 2 {
		t.Fatalf("IInd after abort = %d", f.count("IInd"))
	}
}

func TestInspectAndCompileEvent(t *testing.T) {
	db := openDB(t)
	err := balanceMethods(db.NewClass("account")).
		Trigger("Seq(): perpetual after deposit; after withdraw ==> act",
			func(*ode.ActionCtx) error { return nil }).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	autos, err := db.Inspect("account")
	if err != nil || len(autos) != 1 {
		t.Fatalf("Inspect: %v %v", autos, err)
	}
	a := autos[0]
	if a.States < 2 || a.Symbols < 10 || a.PerObjectBytes != 8 {
		t.Fatalf("automaton %+v", a)
	}
	if !strings.Contains(a.Dot(), "digraph") || a.Table() == "" {
		t.Fatal("rendering broken")
	}
	if _, err := db.Inspect("nosuch"); err == nil {
		t.Fatal("Inspect of unknown class succeeded")
	}

	cls := &ode.Class{
		Name: "probe",
		Methods: []ode.Method{
			{Name: "f", Mode: ode.ModeUpdate},
		},
	}
	auto, err := ode.CompileEvent(cls, "relative(after f, after f)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if auto.States != 3 {
		t.Fatalf("relative(f,f) has %d states", auto.States)
	}
	if _, err := ode.CompileEvent(cls, "after nosuch", nil); err == nil {
		t.Fatal("bad event compiled")
	}
}

func TestBuilderErrorPropagation(t *testing.T) {
	db := openDB(t)
	err := db.NewClass("bad").
		Trigger("oops(: after x ==> y", nil).
		Register()
	if err == nil {
		t.Fatal("syntax error swallowed")
	}
	err = balanceMethods(db.NewClass("bad2")).
		Trigger("T(): after deposit ==> unboundAction", nil).
		Register()
	if err == nil {
		t.Fatal("unbound action accepted")
	}
	err = balanceMethods(db.NewClass("bad3")).
		Trigger("T(): after deposit ==> nosuchmethod()", nil).
		Register()
	if err == nil {
		t.Fatal("unknown method action accepted")
	}
}

// TestWholeViewSurvivesReopen: what a whole-history trigger saw of an
// aborted transaction is durable — the withdraw that was rolled back
// before the restart is still the first of the pair after it.
func TestWholeViewSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	f := newFires()
	open := func() *ode.Database {
		db, err := ode.Open(ode.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		err = balanceMethods(db.NewClass("account")).
			Trigger("Two(): perpetual relative(after withdraw, after withdraw) ==> act", f.action("Two")).
			View("Two", ode.WholeView).
			Register()
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	var acct ode.OID
	if err := db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(1000)})
		return tx.Activate(acct, "Two")
	}); err != nil {
		t.Fatal(err)
	}
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(1))
		return errors.New("abort")
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	if err := db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "withdraw", ode.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if f.count("Two") != 1 {
		t.Fatalf("Two fired %d times after the reopen, want 1: the aborted withdraw was forgotten", f.count("Two"))
	}
}

func TestPersistentReopen(t *testing.T) {
	dir := t.TempDir()
	f := newFires()
	register := func(db *ode.Database) error {
		return balanceMethods(db.NewClass("account")).
			Trigger("Two(): perpetual relative(after deposit, after deposit) ==> act", f.action("Two")).
			Register()
	}
	db, err := ode.Open(ode.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db); err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return tx.Activate(acct, "Two")
	})
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "deposit", ode.Int(1)) // first deposit: automaton mid-way
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := ode.Open(ode.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := register(db2); err != nil {
		t.Fatal(err)
	}
	// The automaton state survived the restart: one more deposit fires.
	db2.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "deposit", ode.Int(1))
		return nil
	})
	if f.count("Two") != 1 {
		t.Fatalf("Two fired %d times after reopen", f.count("Two"))
	}
}

// TestUserCodeFailuresAbortOnlyTheirTransaction: through the public API,
// a panicking action is an *ode.PanicError and an action that calls the
// method firing it is ode.ErrCascadeDepth; each aborts its transaction
// and the account serves the next one.
func TestUserCodeFailuresAbortOnlyTheirTransaction(t *testing.T) {
	db := openDB(t)
	err := balanceMethods(db.NewClass("account")).
		Trigger("Boom(): perpetual after deposit(n) && n == 13 ==> boom", func(*ode.ActionCtx) error { panic("boom") }).
		Trigger("Again(): perpetual after deposit(n) && n == 17 ==> again", func(ctx *ode.ActionCtx) error {
			_, err := ctx.Tx.Call(ctx.Self, "deposit", ode.Int(17))
			return err
		}).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	if err := db.Transact(func(tx *ode.Tx) (err error) {
		if acct, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		if err := tx.Activate(acct, "Boom"); err != nil {
			return err
		}
		return tx.Activate(acct, "Again")
	}); err != nil {
		t.Fatal(err)
	}
	deposit := func(n int64) error {
		return db.Transact(func(tx *ode.Tx) error {
			_, err := tx.Call(acct, "deposit", ode.Int(n))
			return err
		})
	}
	var pe *ode.PanicError
	if err := deposit(13); !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("deposit(13) = %v, want the action's *ode.PanicError", err)
	}
	if err := deposit(17); !errors.Is(err, ode.ErrCascadeDepth) {
		t.Fatalf("deposit(17) = %v, want ode.ErrCascadeDepth", err)
	}
	if err := deposit(5); err != nil {
		t.Fatal(err)
	}
	if err := db.Transact(func(tx *ode.Tx) error {
		b, err := tx.Get(acct, "balance")
		if err == nil && b.AsInt() != 5 {
			err = fmt.Errorf("balance %d, want 5: only the clean deposit", b.AsInt())
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
