package part

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

// partLog records per-partition firing sequences: global interleaving
// across loops is scheduler-dependent, but within one partition the
// firing order must be a pure function of the schedule.
type partLog struct {
	mu   sync.Mutex
	seqs map[int][]string
}

func newPartLog() *partLog { return &partLog{seqs: map[int][]string{}} }

func (l *partLog) add(p int, s string) {
	l.mu.Lock()
	l.seqs[p] = append(l.seqs[p], s)
	l.mu.Unlock()
}

// runBusSchedule opens an n-partition DB with the trace checker attached,
// wires the Large action to relay deposits to a deterministic set of
// partner accounts on other partitions, and drives a fixed seeded
// schedule of withdraw bursts with Drain barriers. It returns the
// per-partition firing sequences and each object's final balance.
func runBusSchedule(t *testing.T, n int, seed int64, steps int) (map[int][]string, map[store.OID]int64) {
	t.Helper()
	plog := newPartLog()
	db, err := Open(Options{N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	chks := attachCheckers(db)

	var oids []store.OID
	cls, impl := bankClass(nil)
	impl.Actions["AnyDep"] = func(ctx *engine.ActionCtx) error {
		plog.add(PartitionOf(ctx.Self, n), fmt.Sprintf("AnyDep/%d", ctx.Self))
		return nil
	}
	impl.Actions["Pair"] = func(ctx *engine.ActionCtx) error {
		plog.add(PartitionOf(ctx.Self, n), fmt.Sprintf("Pair/%d", ctx.Self))
		return nil
	}
	err = db.Register(func(p int, e *engine.Engine) error {
		im := impl
		im.Actions = map[string]engine.ActionFunc{
			"AnyDep": impl.Actions["AnyDep"],
			"Pair":   impl.Actions["Pair"],
			// Large on partition p relays a deposit to the account owned
			// by the next partition (a fixed fan-out: the schedule, not the
			// scheduler, decides who receives what).
			"Large": func(ctx *engine.ActionCtx) error {
				src := p
				plog.add(src, fmt.Sprintf("Large/%d", ctx.Self))
				target := oids[(src+1)%n]
				db.RelayCall(src, target, "deposit", value.Int(11))
				return nil
			},
		}
		_, rerr := e.RegisterClass(cls, im, nil)
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		err := db.Transact(p, func(tx *engine.Tx) error {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			oids = append(oids, oid)
			for _, name := range []string{"Large", "Pair", "AnyDep"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < steps; s++ {
		// A burst of withdraws across partitions, then a barrier: the
		// pending relay set at each barrier is schedule-determined.
		burst := rng.Intn(3) + 1
		for i := 0; i < burst; i++ {
			oid := oids[rng.Intn(len(oids))]
			if _, err := db.Call(oid, "withdraw", value.Int(int64(101+rng.Intn(100)))); err != nil {
				t.Fatal(err)
			}
		}
		db.Drain()
		checkTraces(t, db, chks)
	}
	db.Drain()
	if errs := db.RelayErrors(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
	checkTraces(t, db, chks)

	bals := map[store.OID]int64{}
	for _, oid := range oids {
		oid := oid
		err := db.Transact(db.PartitionOf(oid), func(tx *engine.Tx) error {
			v, err := tx.Get(oid, "balance")
			bals[oid] = v.AsInt()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	plog.mu.Lock()
	defer plog.mu.Unlock()
	return plog.seqs, bals
}

// TestBusDeterministicReplay runs the same seeded cross-partition
// schedule twice on fresh databases: per-partition firing sequences,
// final balances and the trace checkers must all agree — the bus's
// (seq, src) merge makes forwarded-event order a function of the
// schedule, not of goroutine timing.
func TestBusDeterministicReplay(t *testing.T) {
	seqs1, bals1 := runBusSchedule(t, 3, 99, 40)
	seqs2, bals2 := runBusSchedule(t, 3, 99, 40)
	if !reflect.DeepEqual(bals1, bals2) {
		t.Fatalf("balances diverged between identical runs:\n%v\n%v", bals1, bals2)
	}
	if !reflect.DeepEqual(seqs1, seqs2) {
		t.Fatalf("per-partition firing sequences diverged:\n%v\n%v", seqs1, seqs2)
	}
	// And a different seed actually produces a different execution (the
	// determinism above is not vacuous).
	_, bals3 := runBusSchedule(t, 3, 100, 40)
	if reflect.DeepEqual(bals1, bals3) {
		t.Log("different seed produced identical balances (possible but unlikely); schedule may be too small")
	}
}

// TestRelayOrderPerSource pins the merge order: messages relayed from
// one source to one target execute in send order, even when they pile
// up in the inbox before the target's loop drains them.
func TestRelayOrderPerSource(t *testing.T) {
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	var mu sync.Mutex
	var got []int64
	// Park partition 1's loop on a slow job so relays accumulate.
	block := make(chan struct{})
	done := make(chan error, 1)
	db.DoAsync(1, func(e *engine.Engine) error { <-block; return nil }, done)
	for i := int64(1); i <= 20; i++ {
		amt := i
		db.Relay(0, oids[1], func(e *engine.Engine) error {
			mu.Lock()
			got = append(got, amt)
			mu.Unlock()
			return e.Transact(func(tx *engine.Tx) error {
				_, err := tx.Call(oids[1], "deposit", value.Int(amt))
				return err
			})
		})
	}
	close(block)
	<-done
	db.Drain()
	if errs := db.RelayErrors(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 20 {
		t.Fatalf("executed %d relays, want 20", len(got))
	}
	for i, amt := range got {
		if amt != int64(i+1) {
			t.Fatalf("relay order broken at %d: %v", i, got)
		}
	}
}
