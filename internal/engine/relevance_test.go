package engine

import (
	"math/rand"
	"testing"

	"ode/internal/event"
	"ode/internal/oracle"
	"ode/internal/schema"
	"ode/internal/value"
)

// TestKindRelevanceBitmap pins the relevance analysis at the engine
// level: "after deposit" ignores withdraw postings, while a
// sequence-style expression needs every kind (an intervening happening
// breaks adjacency).
func TestKindRelevanceBitmap(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Dep", Perpetual: true, Event: "after deposit"},
		schema.Trigger{Name: "Seq", Perpetual: true, Event: "after deposit; after withdraw"})
	e := newEngine(t, Options{})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatal(err)
	}

	dep := c.Trigger("Dep")
	depIx := c.Res.Alphabet.KindIndex(kindOf(t, c, "deposit"))
	wdIx := c.Res.Alphabet.KindIndex(kindOf(t, c, "withdraw"))
	if !dep.RelevantKind(depIx) {
		t.Error("deposit must be relevant to 'after deposit'")
	}
	if dep.RelevantKind(wdIx) {
		t.Error("withdraw should be irrelevant to 'after deposit'")
	}
	seq := c.Trigger("Seq")
	if !seq.RelevantKind(depIx) || !seq.RelevantKind(wdIx) {
		t.Error("both kinds must be relevant to the sequence trigger")
	}
}

// TestRelevanceSkippingEquivalence runs a randomized workload with the
// trace checker (internal/oracle) attached: every history point the
// engine skips for an irrelevant kind reads as that kind's mask-free
// symbol in the checker's model, so each step's verdict is checked
// against the §4 semantics of the full history, skipped points included
// — the end-to-end safety net for kind-relevance skipping.
func TestRelevanceSkippingEquivalence(t *testing.T) {
	triggers := []schema.Trigger{
		{Name: "Dep", Perpetual: true, Event: "after deposit"},
		{Name: "Pair", Perpetual: true, Event: "relative(after deposit, after withdraw)"},
		{Name: "Once", Event: "after withdraw"},
		{Name: "Big", Perpetual: true, Event: "after deposit(a) && a > 100"},
	}
	run := func() ([]string, oracle.Stats) {
		rec := &recorder{}
		cls, impl := accountClass(rec, triggers...)
		// Re-activate the ordinary trigger whenever it fires so the
		// workload keeps exercising it.
		inner := impl.Actions["Once"]
		impl.Actions["Once"] = func(ctx *ActionCtx) error {
			if err := inner(ctx); err != nil {
				return err
			}
			return ctx.Tx.Activate(ctx.Self, "Once")
		}
		e := newEngine(t, Options{})
		chk := attachChecker(e, 1<<10)
		oid := setup(t, e, cls, impl, "Dep", "Pair", "Once", "Big")

		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 40; round++ {
			err := e.Transact(func(tx *Tx) error {
				for i := 0; i < 5; i++ {
					method := "deposit"
					if rng.Intn(2) == 0 {
						method = "withdraw"
					}
					amt := int64(rng.Intn(200))
					if _, err := tx.Call(oid, method, value.Int(amt)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, chk, e)
		}
		return rec.list(), chk.Stats()
	}

	fired, checks := run()
	if len(fired) == 0 || checks.Inert == 0 {
		t.Fatalf("workload produced %d firings and %d skipped points; equivalence vacuous", len(fired), checks.Inert)
	}
}

// kindOf finds the class's event kind for the named method's "after"
// posting.
func kindOf(t *testing.T, c *Class, method string) event.Kind {
	t.Helper()
	for i := range c.Res.Alphabet.Kinds {
		if c.Res.Alphabet.Kinds[i].Kind.String() == "after "+method {
			return c.Res.Alphabet.Kinds[i].Kind
		}
	}
	t.Fatalf("no kind for method %s", method)
	return event.Kind{}
}
