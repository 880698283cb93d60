package txn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/store"
	"ode/internal/value"
)

// TestLockStressRandomizedOrder hammers the lock manager: N
// goroutines repeatedly lock a random handful of M objects in
// randomized order — a deadlock factory. Every ErrDeadlock victim must
// roll back cleanly (no locks retained), every other transaction must
// commit, and afterwards the lock manager must be fully quiescent: no
// leaked holders, no queued waiters and an empty waits-for graph (the
// held-lock lists live on the transactions; TestAccessedAcrossInlineCrossover
// checks what they release).
func TestLockStressRandomizedOrder(t *testing.T) {
	s, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(s)

	const objects = 24
	oids := make([]store.OID, objects)
	for i := range oids {
		oids[i] = s.Create("obj", map[string]value.Value{"n": value.Int(0)}).OID
	}

	const workers = 16
	const rounds = 200
	var deadlocks, commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for r := 0; r < rounds; r++ {
				tx := m.Begin()
				// Lock 3 random objects in a random order.
				var locked []store.OID
				aborted := false
				for i := 0; i < 3; i++ {
					oid := oids[rng.Intn(objects)]
					rec, _, err := tx.Access(oid)
					if err == ErrDeadlock {
						deadlocks.Add(1)
						if aerr := tx.Abort(); aerr != nil {
							t.Errorf("victim abort failed: %v", aerr)
						}
						// A rolled-back victim must hold nothing.
						for _, l := range locked {
							if tx.Holds(l) {
								t.Errorf("victim still holds lock on %d after abort", l)
							}
						}
						aborted = true
						break
					}
					if err != nil {
						t.Errorf("access: %v", err)
						aborted = true
						tx.Abort()
						break
					}
					rec.SetField("n", value.Int(field(rec, "n").AsInt()+1))
					locked = append(locked, oid)
				}
				if aborted {
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					continue
				}
				commits.Add(1)
				for _, l := range locked {
					if tx.Holds(l) {
						t.Errorf("committed tx still holds lock on %d", l)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if commits.Load() == 0 {
		t.Fatal("no transaction ever committed")
	}
	t.Logf("commits=%d deadlock victims=%d", commits.Load(), deadlocks.Load())

	// Quiescence: nothing held, nobody waiting, graph drained.
	held, waiting := heldOf(m, oids...), m.locks.waiters()
	if held != 0 || waiting != 0 {
		t.Fatalf("lock manager not quiescent: held=%d waiting=%d", held, waiting)
	}
	if edges := m.locks.edges(); edges != 0 {
		t.Fatalf("waits-for graph not drained: edges=%d", edges)
	}
}

// TestLockManagerTargetedWakeup checks the FIFO hand-off: with one
// holder and several waiters on the same object, a release admits the
// waiters one at a time (each new holder is one of the waiters), and
// the object ends free with empty queues.
func TestLockManagerTargetedWakeup(t *testing.T) {
	s, _ := store.Open("")
	m := NewManager(s)
	rec := s.Create("obj", nil)
	oid := rec.OID

	first := m.Begin()
	if _, _, err := first.Access(oid); err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	var wg sync.WaitGroup
	var order []uint64
	var mu sync.Mutex
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := m.Begin()
			if _, _, err := tx.Access(oid); err != nil {
				t.Errorf("waiter access: %v", err)
				return
			}
			mu.Lock()
			order = append(order, tx.ID())
			mu.Unlock()
			if err := tx.Commit(); err != nil {
				t.Errorf("waiter commit: %v", err)
			}
		}()
	}
	// Let the waiters pile up, then release the lock chain.
	waitFor(m, waiters)
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(order) != waiters {
		t.Fatalf("only %d of %d waiters ran", len(order), waiters)
	}
	held, waiting := heldOf(m, oid), m.locks.waiters()
	if held != 0 || waiting != 0 {
		t.Fatalf("not quiescent after hand-off: held=%d waiting=%d", held, waiting)
	}
}
