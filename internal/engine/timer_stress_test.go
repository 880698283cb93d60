package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"ode/internal/evlang"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestTimerTableStress hammers the timer table from concurrent
// transactions — activation, deactivation, and aborts, whose timer
// intents are dropped with the rollback — while another goroutine
// advances the clock, delivering cohort ticks in parallel. Run under
// -race it guards the table's locking; the final check proves the
// schedule, changed only at commits under the objects' locks, converged
// to exactly the active trigger instances.
func TestTimerTableStress(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"},
		schema.Trigger{Name: "Once", Event: "after time(M=30)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}

	const nObj = 32
	oids := make([]store.OID, nObj)
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(100)})
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	triggers := []string{"Tick", "Daily", "Once"}
	abortErr := fmt.Errorf("stress abort")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 200; it++ {
				oid := oids[rng.Intn(nObj)]
				trig := triggers[rng.Intn(len(triggers))]
				abort := rng.Intn(8) == 0
				err := e.Transact(func(tx *Tx) error {
					var err error
					if rng.Intn(3) == 0 {
						err = tx.Deactivate(oid, trig)
					} else {
						err = tx.Activate(oid, trig)
					}
					if err != nil {
						return err
					}
					if abort {
						return abortErr
					}
					return nil
				})
				if err != nil && err != abortErr {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			e.Clock().Advance(time.Minute)
		}
	}()
	wg.Wait()

	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}

	// Quiesced: the shared schedule must list exactly the active
	// trigger instances whose specs still have a next match ('after'
	// one-shots are excluded by contract).
	var want []string
	for _, oid := range oids {
		r, err := e.Store().Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Class("account")
		for slot, act := range r.Trigs {
			if !act.Active {
				continue
			}
			name := r.TrigName(slot)
			for _, req := range c.Trigger(name).Res.Timers {
				if req.Mode == evlang.TimeAfter {
					continue
				}
				want = append(want, fmt.Sprintf("%d %s %s", oid, req.Key, name))
			}
		}
	}
	sort.Strings(want)
	got := e.TimerSchedule()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("schedule diverged from activations:\n got:  %v\n want: %v", got, want)
	}
}
