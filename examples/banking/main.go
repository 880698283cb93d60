// Banking demonstrates the Event-Action model of the paper's §7: all
// E-C-A coupling modes expressed as plain event expressions over
// transaction events, on a bank-account class. It also shows the §6
// history views: a committed-view trigger versus a whole-history
// trigger watching aborts — whose state, like all trigger state, is in
// the database and is there again after a restart.
//
//	go run ./examples/banking
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"ode"
)

// open opens the database in dir and declares the account class.
func open(dir string) *ode.Database {
	db, err := ode.Open(ode.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}

	event := "after withdraw(a) && a > 1000" // E: a large withdrawal
	cond := "balance < 5000"                 // C: the account is getting low

	say := func(tag, msg string) ode.ActionFunc {
		return func(ctx *ode.ActionCtx) error {
			b, _ := ctx.Tx.Get(ctx.Self, "balance")
			fmt.Printf("  [%s] %s (balance %d)\n", tag, msg, b.AsInt())
			return nil
		}
	}

	err = db.NewClass("account").
		Field("balance", ode.KindInt, ode.Int(0)).
		Field("overdrawn", ode.KindBool, ode.Bool(false)).
		Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
			b, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(b.AsInt()+ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		Update("withdraw", func(ctx *ode.MethodCtx) (ode.Value, error) {
			b, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(b.AsInt()-ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		// §7 coupling modes, each a plain event expression:
		Trigger("II(): perpetual "+ode.CouplingImmediateImmediate(event, cond)+" ==> act",
			say("immediate-immediate", "condition and action at the event itself")).
		Trigger("ID(): perpetual "+ode.CouplingImmediateDeferred(event, cond)+" ==> act",
			say("immediate-deferred", "action deferred to just before commit")).
		Trigger("IDep(): perpetual "+ode.CouplingImmediateDependent(event, cond)+" ==> act",
			say("immediate-dependent", "action after the commit, in a system transaction")).
		Trigger("DI(): perpetual "+ode.CouplingDeferredImmediate(event, cond)+" ==> act",
			say("deferred-immediate", "condition checked just before commit")).
		// §6: a whole-history trigger sees aborted work; the balance<0
		// guard is the paper's "balance falls below" state shorthand.
		Trigger("Aborted(): perpetual after tabort ==> act",
			say("whole-history", "a transaction touching this account aborted")).
		View("Aborted", ode.WholeView).
		Trigger("Low(): perpetual balance < 500 ==> act",
			say("state-event", "balance fell below 500")).
		Register()
	if err != nil {
		log.Fatal(err)
	}
	return db
}

func main() {
	dir, err := os.MkdirTemp("", "ode-banking")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := open(dir)

	var acct ode.OID
	must(db.Transact(func(tx *ode.Tx) error {
		acct, err = tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(6000)})
		if err != nil {
			return err
		}
		for _, trig := range []string{"II", "ID", "IDep", "DI", "Aborted", "Low"} {
			if err := tx.Activate(acct, trig); err != nil {
				return err
			}
		}
		return nil
	}))

	fmt.Println("tx 1: withdraw 2000 (large; balance 4000 < 5000 ⇒ C holds)")
	must(db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "withdraw", ode.Int(2000))
		if err != nil {
			return err
		}
		fmt.Println("  -- still inside the transaction --")
		return nil
	}))
	fmt.Println("  -- transaction committed --")

	fmt.Println("tx 2: withdraw 1500, then abort (only immediate modes ran; rolled back)")
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "withdraw", ode.Int(1500))
		return errors.New("user cancelled")
	})

	fmt.Println("tx 3: drain the account below 500")
	must(db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "withdraw", ode.Int(3600))
		return err
	}))

	fmt.Println("restart, then tx 4: deposit 100, then abort (the activations and their state are in the database)")
	must(db.Close())
	db = open(dir)
	defer db.Close()
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "deposit", ode.Int(100))
		return errors.New("user cancelled")
	})

	var final ode.Value
	db.Transact(func(tx *ode.Tx) error {
		final, err = tx.Get(acct, "balance")
		return err
	})
	fmt.Printf("final balance: %d\n", final.AsInt())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
