package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestTraceCheckerRandomizedScenario drives a database with a diverse
// trigger set through hundreds of random transactions — method calls,
// commits, aborts, tabort-raising masks, timers — with the trace checker
// (internal/oracle) attached: every automaton transition of every
// trigger instance, and every history point the engine skipped, is
// checked against the paper's §4 denotational semantics evaluated over
// the instance's full symbol history, and the stored states against the
// replay, after every transaction.
//
// This is the E3 experiment's verification run at the system level:
// the DSL resolver, mask rewrite, compiler and runtime all have to
// agree with the formal model for this to stay silent.
func TestTraceCheckerRandomizedScenario(t *testing.T) {
	e, err := New(Options{Start: time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cls := &schema.Class{
		Name: "acct",
		Fields: []schema.Field{
			{Name: "balance", Kind: value.KindInt, Default: value.Int(1000)},
		},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "audit", Mode: schema.ModeRead},
		},
		Triggers: []schema.Trigger{
			{Name: "Masked", Perpetual: true, Event: "after withdraw(n) && n > 50"},
			{Name: "Seq", Perpetual: true, Event: "after deposit; after withdraw"},
			{Name: "Rel", Perpetual: true, Event: "relative(after deposit, after withdraw(n) && n > 50)"},
			{Name: "Cnt", Perpetual: true, Event: "every 3 (after access)"},
			{Name: "Chz", Event: "choose 4 (after deposit)"},
			{Name: "Neg", Perpetual: true, Event: "!(after audit | after tbegin) & after access"},
			{Name: "FaW", Perpetual: true, Event: "fa(after tbegin, after withdraw, after audit)"},
			// NOTE: a perpetual trigger on a bare "before tcomplete"
			// event never lets the §6 commit fixpoint quiesce; the
			// deferred coupling must use fa(…) so only the FIRST
			// tcomplete after the event fires (§7).
			{Name: "Deep", Perpetual: true, Event: "fa(relative(after deposit, after deposit), before tcomplete, after tbegin)"},
			{Name: "Whole", Perpetual: true, Event: "relative(after tabort, after tbegin)", View: schema.WholeView},
			{Name: "Timer", Perpetual: true, Event: "relative(at time(HR=12), after withdraw)"},
		},
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"deposit": func(ctx *MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()+ctx.Arg("n").AsInt()))
			},
			"withdraw": func(ctx *MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()-ctx.Arg("n").AsInt()))
			},
			"audit": func(ctx *MethodCtx) (value.Value, error) { return ctx.Get("balance") },
		},
		Actions: map[string]ActionFunc{},
	}
	for _, tr := range cls.Triggers {
		impl.Actions[tr.Name] = func(*ActionCtx) error { return nil }
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}

	chk := attachChecker(e, 1<<12)
	const objects = 4
	oids := make([]store.OID, objects)
	err = e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("acct", nil)
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

	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 300; i++ {
		switch rng.Intn(10) {
		case 0:
			// Advance the clock; the checker reads timer deliveries too.
			e.Clock().Advance(time.Duration(1+rng.Intn(10)) * time.Hour)
			if errs := e.TimerErrors(); len(errs) > 0 {
				t.Fatalf("iter %d: timer error: %v", i, errs[0])
			}
		case 1:
			// Abort a transaction after random work: committed-view
			// histories roll back with the automaton state.
			e.Transact(func(tx *Tx) error {
				tx.Call(oids[rng.Intn(objects)], "deposit", value.Int(int64(rng.Intn(200))))
				tx.Call(oids[rng.Intn(objects)], "withdraw", value.Int(int64(rng.Intn(200))))
				return errors.New("random abort")
			})
		case 2:
			// Re-activate a random trigger on a random object.
			err := e.Transact(func(tx *Tx) error {
				return tx.Activate(oids[rng.Intn(objects)], cls.Triggers[rng.Intn(len(cls.Triggers))].Name)
			})
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		default:
			err := e.Transact(func(tx *Tx) error {
				for c := 0; c < 1+rng.Intn(4); c++ {
					oid := oids[rng.Intn(objects)]
					var err error
					switch rng.Intn(3) {
					case 0:
						_, err = tx.Call(oid, "deposit", value.Int(int64(rng.Intn(200))))
					case 1:
						_, err = tx.Call(oid, "withdraw", value.Int(int64(rng.Intn(200))))
					default:
						_, err = tx.Call(oid, "audit")
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
		checkTrace(t, chk, e)
	}
	if s := chk.Stats(); s.Steps == 0 || s.Inert == 0 {
		t.Fatalf("the checker checked %d steps and %d skipped points", s.Steps, s.Inert)
	}
}

// TestActionEventParamsExtension checks the §9-future-work extension:
// the action sees the kind and parameters of the happening that
// completed the event.
func TestActionEventParamsExtension(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var gotKind string
	var gotAmount int64
	cls := &schema.Class{
		Name:   "acct",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt}},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "T", Perpetual: true, Event: "relative(after deposit, after withdraw)"},
		},
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"deposit":  func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
			"withdraw": func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
		},
		Actions: map[string]ActionFunc{
			"T": func(ctx *ActionCtx) error {
				gotKind = ctx.EventKind
				gotAmount = ctx.EventParam("n").AsInt()
				return nil
			},
		},
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err = e.Transact(func(tx *Tx) error {
		oid, _ := tx.NewObject("acct", nil)
		tx.Activate(oid, "T")
		tx.Call(oid, "deposit", value.Int(10))
		_, err := tx.Call(oid, "withdraw", value.Int(77))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotKind != "after withdraw" || gotAmount != 77 {
		t.Fatalf("action saw %q / %d, want 'after withdraw' / 77", gotKind, gotAmount)
	}
}

// TestRetainedEventParamsAreDetached: what an action keeps of a
// happening's parameters is its own. A method body that alters the
// argument map it is handed — between the before- and the after-posting —
// changes neither what the before-action retained nor what the
// after-posting's masks read; and on the batch path a later entry overwriting the plan's
// parameter row changes nothing an earlier entry's action kept.
func TestRetainedEventParamsAreDetached(t *testing.T) {
	type kept struct {
		m map[string]value.Value
		v value.Value
	}
	run := func(t *testing.T, batch bool) ([]string, []kept) {
		e := newEngine(t, Options{})
		var log []string
		var retained []kept
		cls := &schema.Class{
			Name:   "acct",
			Fields: []schema.Field{{Name: "balance", Kind: value.KindInt}},
			Methods: []schema.Method{
				{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			},
			Triggers: []schema.Trigger{
				{Name: "Seen", Perpetual: true, Event: "before deposit(x) && x > 0"},
				{Name: "Huge", Perpetual: true, Event: "after deposit(x) && x > 500"},
			},
		}
		impl := ClassImpl{
			Methods: map[string]MethodImpl{
				"deposit": func(ctx *MethodCtx) (value.Value, error) {
					args := ctx.Args()
					args["n"] = value.Int(999) // the caller's own copy: reaches nothing
					return value.Null(), ctx.Set("balance", ctx.Arg("n"))
				},
			},
			Actions: map[string]ActionFunc{
				"Seen": func(ctx *ActionCtx) error {
					log = append(log, fmt.Sprintf("Seen %s", ctx.EventParam("n")))
					retained = append(retained, kept{ctx.EventParams(), ctx.EventParam("n")})
					return nil
				},
				"Huge": func(ctx *ActionCtx) error {
					log = append(log, fmt.Sprintf("Huge %s", ctx.EventParam("n")))
					return nil
				},
			},
		}
		if _, err := e.RegisterClass(cls, impl, nil); err != nil {
			t.Fatal(err)
		}
		err := e.Transact(func(tx *Tx) error {
			oid, err := tx.NewObject("acct", nil)
			if err != nil {
				return err
			}
			for _, name := range []string{"Seen", "Huge"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			amounts := []int64{10, 20, 600}
			if batch {
				b := NewBatch("acct", len(amounts))
				for _, n := range amounts {
					b.Call(oid, "deposit", value.Int(n))
				}
				return tx.PostBatch(b)
			}
			for _, n := range amounts {
				if _, err := tx.Call(oid, "deposit", value.Int(n)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return log, retained
	}

	want := []string{"Seen 10", "Seen 20", "Seen 600", "Huge 600"}
	for _, batch := range []bool{false, true} {
		log, retained := run(t, batch)
		if !slices.Equal(log, want) {
			t.Errorf("batch=%v: firings %v, want %v", batch, log, want)
		}
		for i, n := range []int64{10, 20, 600} {
			if i >= len(retained) {
				break
			}
			k := retained[i]
			if len(k.m) != 1 || !k.m["n"].Equal(value.Int(n)) || !k.v.Equal(value.Int(n)) {
				t.Errorf("batch=%v: action %d retained %v / %s, want n=%d",
					batch, i, k.m, k.v, n)
			}
		}
	}
}
