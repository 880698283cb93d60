// Fraudwatch uses the Ode event algebra as a complex-event-processing
// engine — the lineage the paper started (modern CEP systems implement
// close variants of these operators). A card object receives purchase
// events; composite triggers recognize fraud signatures:
//
//	CardTesting  two tiny purchases immediately followed by a large
//	             one (sequence of masked logical events)
//	GeoJump      a purchase in the EU followed by one in the US with
//	             no settlement in between (fa with a guard)
//	Velocity     the 5th purchase since the start of the day
//	             (relative + choose + timer events, the paper's T4/T7
//	             pattern)
//	Blocked      any purchase on a blocked card aborts the transaction
//	             (object-state mask + tabort)
//
//	go run ./examples/fraudwatch
package main

import (
	"fmt"
	"log"
	"time"

	"ode"
)

func main() {
	db, err := ode.Open(ode.Options{Start: time.Date(2026, 7, 5, 23, 30, 0, 0, time.UTC)})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	alert := func(name, msg string) ode.ActionFunc {
		return func(ctx *ode.ActionCtx) error {
			// The triggering happening's parameters are available to
			// the action (an extension over the paper; its §9 lists
			// event arguments as future work).
			amt := ctx.EventParam("amt")
			fmt.Printf("  !! [%s] %s (last purchase: %s)\n", name, msg, amt)
			return nil
		}
	}

	defs := ode.NewDefines().Add("dayBegin", "at time(HR=0)")

	err = db.NewClass("card").
		Defines(defs).
		Field("holder", ode.KindString, ode.Null()).
		Field("blocked", ode.KindBool, ode.Bool(false)).
		Field("spent", ode.KindFloat, ode.Float(0)).
		Update("purchase", func(ctx *ode.MethodCtx) (ode.Value, error) {
			s, _ := ctx.Get("spent")
			return ode.Null(), ctx.Set("spent", ode.Float(s.AsFloat()+ctx.Arg("amt").AsFloat()))
		}, ode.P("amt", ode.KindFloat), ode.P("region", ode.KindString)).
		Update("settle", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("spent", ode.Float(0))
		}).
		Update("block", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("blocked", ode.Bool(true))
		}).
		// Method calls post BOTH before- and after-events, and sequence
		// demands strict adjacency, so the signature masks the before-
		// events too.
		Trigger(`CardTesting(): perpetual after purchase(a, r) && a < 5.0;
		                        before purchase(a, r) && a < 5.0;
		                        after purchase(a, r) && a < 5.0;
		                        before purchase(a, r) && a > 500.0;
		                        after purchase(a, r) && a > 500.0 ==> act`,
			alert("card-testing", "two micro-purchases immediately before a large one")).
		Trigger(`GeoJump(): perpetual fa(after purchase(a, r) && r == "EU",
		                                 after purchase(a, r) && r == "US",
		                                 after settle) ==> act`,
			alert("geo-jump", "EU purchase then US purchase with no settlement between")).
		Trigger("Velocity(): perpetual relative(dayBegin, choose 5 (after purchase) & !prior(dayBegin, after purchase)) ==> act",
			alert("velocity", "fifth purchase since midnight")).
		Trigger("Blocked(): perpetual before purchase && blocked ==> tabort", nil).
		Register()
	if err != nil {
		log.Fatal(err)
	}

	var card ode.OID
	must(db.Transact(func(tx *ode.Tx) error {
		card, err = tx.NewObject("card", map[string]ode.Value{"holder": ode.Str("carol")})
		if err != nil {
			return err
		}
		for _, trig := range []string{"CardTesting", "GeoJump", "Velocity", "Blocked"} {
			if err := tx.Activate(card, trig); err != nil {
				return err
			}
		}
		return nil
	}))

	buy := func(amt float64, region string) {
		err := db.Transact(func(tx *ode.Tx) error {
			_, err := tx.Call(card, "purchase", ode.Float(amt), ode.Str(region))
			return err
		})
		if err != nil {
			fmt.Printf("  purchase of %.2f DECLINED: %v\n", amt, err)
			return
		}
		fmt.Printf("  purchase %.2f %s\n", amt, region)
	}

	db.Clock().Advance(10 * time.Hour) // 09:30 next day, past the midnight tick
	fmt.Println("-- a normal morning --")
	buy(23.40, "EU")
	buy(61.10, "EU")

	fmt.Println("-- card-testing signature (one transaction) --")
	must(db.Transact(func(tx *ode.Tx) error {
		for _, amt := range []float64{1.00, 2.00, 950.00} {
			if _, err := tx.Call(card, "purchase", ode.Float(amt), ode.Str("EU")); err != nil {
				return err
			}
		}
		return nil
	}))

	fmt.Println("-- geo jump (also the 5th+ purchase of the day) --")
	buy(480.00, "US")

	fmt.Println("-- the bank blocks the card --")
	must(db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(card, "block")
		return err
	}))
	buy(10.00, "US")

	var spent ode.Value
	db.Transact(func(tx *ode.Tx) error {
		var err error
		spent, err = tx.Get(card, "spent")
		return err
	})
	fmt.Printf("total spent on card: %.2f\n", spent.AsFloat())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
