package engine

import (
	"fmt"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestOneStateWordPerActiveTrigger pins §5's storage claim on the live
// engine (E2): an object with k active triggers holds k trigger states,
// each one automaton-state integer with no parameters and no history.
func TestOneStateWordPerActiveTrigger(t *testing.T) {
	e, oids, trigs, _ := couplingAccounts(t, 16)
	checkOneWordPerTrigger(t, e, oids, len(trigs), "after activation")
}

// TestStateWordsConstantInHistoryLength: the per-object trigger state of
// TestOneStateWordPerActiveTrigger stays one word per active trigger
// however long the objects' histories grow (E2).
func TestStateWordsConstantInHistoryLength(t *testing.T) {
	const objects, calls = 16, 500
	e, oids, trigs, rec := couplingAccounts(t, objects)
	for i := 0; i < calls; i++ {
		err := e.Transact(func(tx *Tx) error {
			_, err := tx.Call(oids[i%objects], "withdraw", value.Int(int64(50+i%200)))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rec.count() == 0 {
		t.Fatal("no trigger fired: the history did not move any automaton")
	}
	checkOneWordPerTrigger(t, e, oids, len(trigs), fmt.Sprintf("after %d calls", calls))
}

// couplingAccounts creates n accounts, each with the nine §7 coupling
// encodings over E = a large withdrawal and C = a low balance active:
// one trigger per E-C-A mode.
func couplingAccounts(t *testing.T, n int) (*Engine, []store.OID, []schema.Trigger, *recorder) {
	t.Helper()
	const ev, cond = "after withdraw(a) && a > 100", "balance < 5000"
	ec := "(" + ev + ") && " + cond
	def := "fa((" + ev + "), before tcomplete, after tbegin)"
	var trigs []schema.Trigger
	for i, event := range []string{
		ec,
		"fa(" + ec + ", before tcomplete, after tbegin)",
		"fa(" + ec + ", after tcommit, after tbegin)",
		"fa(" + ec + ", after tcommit | after tabort, after tbegin)",
		"(" + def + ") && " + cond,
		"fa((" + def + ") && " + cond + ", after tcommit, after tbegin)",
		"fa((" + def + ") && " + cond + ", after tcommit | after tabort, after tbegin)",
		"(fa((" + ev + "), after tcommit, after tbegin)) && " + cond,
		"(fa((" + ev + "), after tcommit | after tabort, after tbegin)) && " + cond,
	} {
		trigs = append(trigs, schema.Trigger{Name: fmt.Sprintf("C%d", i), Perpetual: true, Event: event})
	}
	rec := &recorder{}
	cls, impl := accountClass(rec, trigs...)
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	oids := make([]store.OID, n)
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			for _, tr := range trigs {
				if err := tx.Activate(oid, tr.Name); err != nil {
					return err
				}
			}
			oids[i] = oid
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, oids, trigs, rec
}

// checkOneWordPerTrigger fails unless each object has k trigger slots,
// all active, and none holds parameters or a shadow beside its state.
func checkOneWordPerTrigger(t *testing.T, e *Engine, oids []store.OID, k int, when string) {
	t.Helper()
	for _, oid := range oids {
		r, err := e.Store().Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		active := 0
		for i := range r.Trigs {
			ts := &r.Trigs[i]
			if ts.Active {
				active++
			}
			if ts.Params() != nil {
				t.Fatalf("%s: object %d trigger slot %d holds more than its state word", when, oid, i)
			}
		}
		if active != k || len(r.Trigs) != k {
			t.Fatalf("%s: object %d has %d slots, %d active, want %d of each",
				when, oid, len(r.Trigs), active, k)
		}
	}
}

// TestTimeEventsOverTwoDays drives the three time-event forms on the
// virtual clock across 48 hours from 08:00 (E7; §3.1 and footnote 1):
// a daily `at` fires at each of the two 17:00s, a six-hourly `every`
// eight times and a 30-hour `after` once.
func TestTimeEventsOverTwoDays(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "AtDaily", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "EveryH", Perpetual: true, Event: "every time(HR=6)"},
		schema.Trigger{Name: "AfterOnce", Event: "after time(HR=30)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)})
	setup(t, e, cls, impl, "AtDaily", "EveryH", "AfterOnce")

	e.Clock().Advance(48 * time.Hour)
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
	got := map[string]int{}
	for _, name := range rec.list() {
		got[name]++
	}
	if want := map[string]int{"AtDaily": 2, "EveryH": 8, "AfterOnce": 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firings over 48h = %v, want %v", got, want)
	}
}
