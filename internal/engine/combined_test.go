package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// combinedFixture builds the same class and workload twice — once with
// per-trigger automata, once with footnote-5 combined monitoring — and
// returns both firing transcripts.
func combinedFixture(t *testing.T, seed int64) (perTrigger, combined []string) {
	t.Helper()
	run := func(useCombined bool) []string {
		var fires []string
		cls := &schema.Class{
			Name: "acct",
			Fields: []schema.Field{
				{Name: "balance", Kind: value.KindInt, Default: value.Int(1000)},
			},
			Methods: []schema.Method{
				{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
				{Name: "withdraw", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			},
			Triggers: []schema.Trigger{
				{Name: "Large", Perpetual: true, Event: "after withdraw(n) && n > 50"},
				{Name: "Seq", Perpetual: true, Event: "after deposit; after withdraw"},
				{Name: "Third", Perpetual: true, Event: "every 3 (after access)"},
				{Name: "Dep", Perpetual: true, Event: "fa(after withdraw, after tcommit, after tbegin)"},
			},
		}
		impl := ClassImpl{
			Methods: map[string]MethodImpl{
				"deposit":  func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
				"withdraw": func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
			},
			Actions: map[string]ActionFunc{},
		}
		for _, tr := range cls.Triggers {
			name := tr.Name
			impl.Actions[name] = func(ctx *ActionCtx) error {
				fires = append(fires, fmt.Sprintf("%s@%d", name, ctx.Self))
				return nil
			}
		}
		e := newEngine(t, Options{CombinedAutomata: useCombined})
		c, err := e.RegisterClass(cls, impl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if useCombined && c.monitor == nil {
			t.Fatal("class should be eligible for combined monitoring")
		}
		if !useCombined && c.monitor != nil {
			t.Fatal("combined monitor built without the option")
		}

		const objects = 3
		oids := make([]store.OID, objects)
		e.Transact(func(tx *Tx) error {
			for i := range oids {
				oids[i], _ = tx.NewObject("acct", nil)
				for _, tr := range cls.Triggers {
					if err := tx.Activate(oids[i], tr.Name); err != nil {
						return err
					}
				}
			}
			return nil
		})

		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			oid := oids[rng.Intn(objects)]
			abort := rng.Intn(6) == 0
			e.Transact(func(tx *Tx) error {
				for c := 0; c < 1+rng.Intn(3); c++ {
					if rng.Intn(2) == 0 {
						tx.Call(oid, "deposit", value.Int(int64(rng.Intn(100))))
					} else {
						tx.Call(oid, "withdraw", value.Int(int64(rng.Intn(100))))
					}
				}
				if abort {
					return errors.New("abort")
				}
				return nil
			})
		}
		return fires
	}
	return run(false), run(true)
}

// TestCombinedMatchesPerTrigger drives an identical randomized
// workload through both monitoring modes: the firing transcripts must
// be identical, event for event.
func TestCombinedMatchesPerTrigger(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		per, comb := combinedFixture(t, seed)
		if len(per) != len(comb) {
			t.Fatalf("seed %d: %d vs %d firings", seed, len(per), len(comb))
		}
		for i := range per {
			if per[i] != comb[i] {
				t.Fatalf("seed %d: firing %d differs: %s vs %s", seed, i, per[i], comb[i])
			}
		}
		if len(per) == 0 {
			t.Fatalf("seed %d: empty transcript proves nothing", seed)
		}
	}
}

// TestCombinedEligibilityRules checks every disqualifier.
func TestCombinedEligibilityRules(t *testing.T) {
	base := func() (*schema.Class, ClassImpl) {
		rec := &recorder{}
		cls, impl := accountClass(rec,
			schema.Trigger{Name: "T", Perpetual: true, Event: "after deposit"})
		return cls, impl
	}
	cases := []struct {
		name   string
		mutate func(*schema.Class, *ClassImpl)
	}{
		{"ordinary trigger", func(c *schema.Class, _ *ClassImpl) { c.Triggers[0].Perpetual = false }},
		{"whole view", func(c *schema.Class, _ *ClassImpl) { c.Triggers[0].View = schema.WholeView }},
		{"trigger params", func(c *schema.Class, _ *ClassImpl) {
			c.Triggers[0].Params = []schema.Param{{Name: "x", Kind: value.KindInt}}
			c.Triggers[0].Event = "after deposit(n) && n > x"
		}},
		{"after-timer", func(c *schema.Class, _ *ClassImpl) {
			c.Triggers[0].Event = "after time(HR=1)"
		}},
	}
	for _, tc := range cases {
		cls, impl := base()
		cls.Name = "acct_" + tc.name
		tc.mutate(cls, &impl)
		e := newEngine(t, Options{CombinedAutomata: true})
		c, err := e.RegisterClass(cls, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.monitor != nil {
			t.Errorf("%s: class should be ineligible", tc.name)
		}
	}
	// The unmutated class is eligible.
	cls, impl := base()
	e := newEngine(t, Options{CombinedAutomata: true})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil || c.monitor == nil {
		t.Fatalf("baseline ineligible: %v", err)
	}
}

// TestCombinedSingleStateWord verifies the storage claim: one word per
// object in total, not per trigger.
func TestCombinedSingleStateWord(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "A", Perpetual: true, Event: "after deposit"},
		schema.Trigger{Name: "B", Perpetual: true, Event: "after withdraw"},
		schema.Trigger{Name: "C", Perpetual: true, Event: "every 2 (after access)"})
	e := newEngine(t, Options{CombinedAutomata: true})
	oid := setup(t, e, cls, impl, "A", "B", "C")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	r, _ := e.Store().Get(oid)
	// Per-trigger activation records exist (Active flags + params) but
	// only the __combined slot carries a moving state.
	slot := r.Trigger(combinedSlot)
	if !slot.Active {
		t.Fatal("no combined state slot")
	}
	for _, name := range []string{"A", "B", "C"} {
		if r.Trigger(name).State != 0 {
			t.Fatalf("per-trigger state %s advanced in combined mode", name)
		}
	}
	// Abort rolls the shared word back with the record.
	before := slot.State
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return errors.New("abort")
	})
	r2, _ := e.Store().Get(oid)
	if r2.Trigger(combinedSlot).State != before {
		t.Fatal("combined state not rolled back on abort")
	}
}

// TestCombinedDeactivationSuppressesFiring checks that deactivation
// under combined monitoring suppresses the action but keeps the shared
// history moving.
func TestCombinedDeactivationSuppressesFiring(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Seq", Perpetual: true, Event: "relative(after deposit, after withdraw)"},
		schema.Trigger{Name: "All", Perpetual: true, Event: "after access"})
	e := newEngine(t, Options{CombinedAutomata: true})
	oid := setup(t, e, cls, impl, "Seq", "All")

	e.Transact(func(tx *Tx) error { return tx.Deactivate(oid, "Seq") })
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1)) // Seq suppressed but history advances
		return nil
	})
	e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Seq") })
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1)) // completes the pair in shared history
		return nil
	})
	seqFired := 0
	for _, f := range rec.list() {
		if f == "Seq" {
			seqFired++
		}
	}
	// Shared-history semantics: the deposit observed while Seq was
	// deactivated still counts once it is re-activated (documented
	// deviation from per-trigger activation resets).
	if seqFired != 1 {
		t.Fatalf("Seq fired %d times, want 1 under shared-history semantics", seqFired)
	}
}
