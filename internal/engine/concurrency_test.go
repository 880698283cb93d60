package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestConcurrentTransactionsWithTriggers runs many goroutines posting
// events to a pool of objects with active composite triggers, under
// the race detector. Object-level locking serializes per-object
// histories, so per-object trigger counts must match per-object event
// counts exactly.
func TestConcurrentTransactionsWithTriggers(t *testing.T) {
	e := newEngine(t, Options{})
	var fires atomic.Int64
	cls := &schema.Class{
		Name:   "counter",
		Fields: []schema.Field{{Name: "n", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "bump", Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			// Fires on every second committed bump.
			{Name: "Even", Perpetual: true, Event: "every 2 (after bump)"},
		},
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"bump": func(ctx *MethodCtx) (value.Value, error) {
				n, _ := ctx.Get("n")
				return value.Null(), ctx.Set("n", value.Int(n.AsInt()+1))
			},
		},
		Actions: map[string]ActionFunc{
			"Even": func(*ActionCtx) error { fires.Add(1); return nil },
		},
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}

	const objects = 6
	oids := make([]store.OID, objects)
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("counter", nil)
			if err != nil {
				return err
			}
			oids[i] = oid
			if err := tx.Activate(oid, "Even"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// bumpsPerWorker is a multiple of the object count, so the
	// round-robin schedule gives every object the same (even) number
	// of bumps and "every 2" fires exactly half as many times.
	const workers = 8
	const bumpsPerWorker = 42
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < bumpsPerWorker; i++ {
				oid := oids[(w+i)%objects]
				for {
					err := e.Transact(func(tx *Tx) error {
						_, err := tx.Call(oid, "bump")
						return err
					})
					if err == nil {
						break
					}
					// Deadlock or contention: retry.
				}
			}
		}(w)
	}
	wg.Wait()

	totalBumps := int64(workers * bumpsPerWorker)
	var storedTotal int64
	for _, oid := range oids {
		rec, _ := e.Store().Get(oid)
		storedTotal += field(rec, "n").AsInt()
	}
	if storedTotal != totalBumps {
		t.Fatalf("lost updates: stored %d, want %d", storedTotal, totalBumps)
	}
	// Each object received totalBumps/objects (an even number of)
	// bumps, so each trigger fired exactly half that often.
	if got, want := fires.Load(), totalBumps/2; got != want {
		t.Fatalf("trigger fired %d times, want %d", got, want)
	}
}

// TestConcurrentSharedObjectSerializes hammers one object from many
// goroutines: the committed event history must be a serial interleave,
// so a relative(deposit, withdraw) trigger fires exactly once per
// withdraw that has any earlier committed deposit.
func TestConcurrentSharedObjectSerializes(t *testing.T) {
	e := newEngine(t, Options{})
	var fires atomic.Int64
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "RW", Perpetual: true, Event: "prior(after deposit, after withdraw)"})
	impl.Actions["RW"] = func(*ActionCtx) error { fires.Add(1); return nil }
	oid := setup(t, e, cls, impl, "RW")

	const workers = 6
	const opsPerWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				method := "deposit"
				if (w+i)%2 == 0 {
					method = "withdraw"
				}
				for {
					err := e.Transact(func(tx *Tx) error {
						_, err := tx.Call(oid, method, value.Int(1))
						return err
					})
					if err == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// All withdraws except any that happened before the very first
	// deposit fire the trigger. We can't know the interleaving, but
	// the count must be between 1 and total withdraws, and the final
	// automaton state must be consistent with a serial history (the
	// shadowless sanity: balance arithmetic survived).
	totalWithdraws := int64(0)
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPerWorker; i++ {
			if (w+i)%2 == 0 {
				totalWithdraws++
			}
		}
	}
	got := fires.Load()
	if got < 1 || got > totalWithdraws {
		t.Fatalf("fires = %d, withdraws = %d", got, totalWithdraws)
	}
}

// TestConcurrentTracingAndMetrics posts from many goroutines with
// tracing enabled while other goroutines read trace events, snapshot
// metrics, and toggle tracing off and on — the full observability
// surface under the race detector. Afterwards the per-trigger firing
// counts must still sum to the engine's firing counter.
func TestConcurrentTracingAndMetrics(t *testing.T) {
	e := newEngine(t, Options{})
	e.EnableTracing(512)
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "AnyDep", Perpetual: true, Event: "after deposit"},
		schema.Trigger{Name: "Pair", Perpetual: true, Event: "prior(after deposit, after withdraw)"})
	oid := setup(t, e, cls, impl, "AnyDep", "Pair")

	const workers = 6
	const opsPerWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				method := "deposit"
				if (w+i)%3 == 0 {
					method = "withdraw"
				}
				for {
					err := e.Transact(func(tx *Tx) error {
						_, err := tx.Call(oid, method, value.Int(1))
						return err
					})
					if err == nil {
						break
					}
				}
			}
		}(w)
	}
	// Observability readers and a toggler race with the posters.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.TraceEvents(32)
				e.History(oid)
				e.Metrics().Snapshot()
				e.Stats()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if i%2 == 0 {
					e.DisableTracing()
				} else {
					e.EnableTracing(128)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	e.EnableTracing(128)

	stats := e.Stats()
	var firings, latCount uint64
	for _, ts := range e.Metrics().Snapshot().Triggers {
		firings += ts.Firings
		latCount += ts.Latency.Count
	}
	if firings != stats.Firings {
		t.Fatalf("per-trigger firings %d != stats %d", firings, stats.Firings)
	}
	if latCount != stats.Firings {
		t.Fatalf("latency counts %d != stats %d", latCount, stats.Firings)
	}
	// One more post lands in the freshly enabled trace.
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(e.TraceEvents(0)) == 0 {
		t.Fatal("no trace events after re-enable")
	}
}
