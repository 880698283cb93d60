package ode_test

import (
	"fmt"
	"time"

	"ode"
)

// Example demonstrates the minimal flow: a class, a composite trigger
// in the paper's syntax, and a transaction that fires it.
func Example() {
	db, _ := ode.Open(ode.Options{})
	defer db.Close()

	_ = db.NewClass("account").
		Field("balance", ode.KindInt, ode.Int(0)).
		Update("withdraw", func(ctx *ode.MethodCtx) (ode.Value, error) {
			b, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(b.AsInt()-ctx.Arg("amount").AsInt()))
		}, ode.P("amount", ode.KindInt)).
		Trigger("Large(): perpetual after withdraw(a) && a > 1000 ==> report",
			func(ctx *ode.ActionCtx) error {
				fmt.Println("large withdrawal detected")
				return nil
			}).
		Register()

	var acct ode.OID
	_ = db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(5000)})
		return tx.Activate(acct, "Large")
	})
	_ = db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(100))  // below the mask
		tx.Call(acct, "withdraw", ode.Int(2000)) // fires
		return nil
	})
	// Output: large withdrawal detected
}

// ExampleDatabase_Transact shows tabort: a trigger action aborting the
// posting transaction, rolling back everything it did.
func ExampleDatabase_Transact() {
	db, _ := ode.Open(ode.Options{})
	defer db.Close()

	_ = db.NewClass("vault").
		Field("gold", ode.KindInt, ode.Int(100)).
		Update("take", func(ctx *ode.MethodCtx) (ode.Value, error) {
			g, _ := ctx.Get("gold")
			return ode.Null(), ctx.Set("gold", ode.Int(g.AsInt()-ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		Trigger("Guard(): perpetual before take(n) && n > 50 ==> tabort", nil).
		Register()

	var vault ode.OID
	_ = db.Transact(func(tx *ode.Tx) error {
		vault, _ = tx.NewObject("vault", nil)
		return tx.Activate(vault, "Guard")
	})
	err := db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(vault, "take", ode.Int(80))
		return err
	})
	fmt.Println("aborted:", err == ode.ErrTabort)

	var gold ode.Value
	_ = db.Transact(func(tx *ode.Tx) error {
		var err error
		gold, err = tx.Get(vault, "gold")
		return err
	})
	fmt.Println("gold:", gold)
	// Output:
	// aborted: true
	// gold: 100
}

// ExampleDatabase_Clock shows a time event on the virtual clock.
func ExampleDatabase_Clock() {
	db, _ := ode.Open(ode.Options{Start: time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)})
	defer db.Close()

	_ = db.NewClass("office").
		Field("open", ode.KindBool, ode.Bool(true)).
		Update("close", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("open", ode.Bool(false))
		}).
		Trigger("EndOfDay(): perpetual at time(HR=17) ==> close()", nil).
		Register()

	var office ode.OID
	_ = db.Transact(func(tx *ode.Tx) error {
		office, _ = tx.NewObject("office", nil)
		return tx.Activate(office, "EndOfDay")
	})

	db.Clock().Advance(10 * time.Hour) // past 17:00
	var open ode.Value
	_ = db.Transact(func(tx *ode.Tx) error {
		var err error
		open, err = tx.Get(office, "open")
		return err
	})
	fmt.Println("open after 17:00:", open)
	// Output: open after 17:00: false
}

// ExampleCouplingImmediateDeferred shows a §7 coupling combinator
// producing a plain event expression.
func ExampleCouplingImmediateDeferred() {
	expr := ode.CouplingImmediateDeferred("after withdraw(a) && a > 100", "balance < 0")
	fmt.Println(expr)
	// Output: fa((after withdraw(a) && a > 100) && balance < 0, before tcomplete, after tbegin)
}

// ExampleCompileEvent inspects the §5 compilation pipeline without a
// database.
func ExampleCompileEvent() {
	cls := &ode.Class{
		Name: "account",
		Methods: []ode.Method{
			{Name: "deposit", Mode: ode.ModeUpdate},
			{Name: "withdraw", Mode: ode.ModeUpdate},
		},
	}
	auto, _ := ode.CompileEvent(cls, "after deposit; after withdraw", nil)
	fmt.Printf("states=%d per-object=%dB\n", auto.States, auto.PerObjectBytes)
	// Output: states=3 per-object=8B
}

// ExampleDatabase_QueryHistory evaluates an event expression over an
// object's history, read from the trace (offline "history expressions",
// the paper's §9).
func ExampleDatabase_QueryHistory() {
	db, _ := ode.Open(ode.Options{})
	defer db.Close()
	db.EnableTracing(0) // before the object exists

	_ = db.NewClass("acct").
		Field("n", ode.KindInt, ode.Int(0)).
		Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) { return ode.Null(), nil }).
		Update("withdraw", func(ctx *ode.MethodCtx) (ode.Value, error) { return ode.Null(), nil }).
		Register()

	var acct ode.OID
	_ = db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("acct", nil)
		return nil
	})
	_ = db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "deposit")
		tx.Call(acct, "withdraw")
		return nil
	})

	points, _ := db.QueryHistory(acct, "relative(after deposit, after withdraw)")
	fmt.Println("occurrences:", len(points))
	// Output: occurrences: 1
}
