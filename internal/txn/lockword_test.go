package txn

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ode/internal/store"
	"ode/internal/value"
)

// heldOf counts the lock words among oids that are not 0: held, or
// marked for waiters. A test checks quiescence over its own objects.
func heldOf(m *Manager, oids ...store.OID) (n int) {
	for _, oid := range oids {
		if w := m.Store().LockWord(oid); w != nil && w.Load() != 0 {
			n++
		}
	}
	return n
}

// waitFor yields until the lock manager has n queued waiters.
func waitFor(m *Manager, n int) {
	for m.locks.waiters() != n {
		runtime.Gosched()
	}
}

// TestLockWordMutualExclusion: 16 goroutines increment a field of a
// random subset of 3 objects in transactions that lock them in one
// order, so none deadlocks, and a woken waiter races newcomers that
// barge on the free word. Every object's count ends equal to the
// commits that touched it, and every word ends 0.
func TestLockWordMutualExclusion(t *testing.T) {
	m := newManager(t)
	oids := make([]store.OID, 3)
	for i := range oids {
		oids[i] = m.Store().Create("obj", map[string]value.Value{"n": value.Int(0)}).OID
	}
	const workers, rounds = 16, 300
	var commits [3]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				tx := m.Begin()
				subset := 1 + rng.Intn(7) // a non-empty subset of the 3, as bits
				for i, oid := range oids {
					if subset&(1<<i) == 0 {
						continue
					}
					rec, _, err := tx.Access(oid)
					if err != nil {
						t.Errorf("access: %v", err)
						return
					}
					rec.SetField("n", value.Int(field(rec, "n").AsInt()+1))
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				for i := range oids {
					if subset&(1<<i) != 0 {
						commits[i].Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i, oid := range oids {
		img, _ := m.Store().GetCommitted(oid)
		if got, want := field(img, "n").AsInt(), commits[i].Load(); got != want {
			t.Errorf("object %d: n = %d after %d commits", oid, got, want)
		}
	}
	if held, waiting := heldOf(m, oids...), m.locks.waiters(); held != 0 || waiting != 0 {
		t.Fatalf("not quiescent: held=%d waiting=%d", held, waiting)
	}
}

// TestWaiterOnFreedChunk: a transaction waits on the last live object of
// a chunk whose deletion then commits, which frees the chunk. The waiter
// wakes on the detached word, takes it and finds no object, as it would
// on any deleted one; its abort leaves no word set and no queue.
func TestWaiterOnFreedChunk(t *testing.T) {
	m := newManager(t)
	const chunk = 1024 // the store's slots per chunk; the first chunk is the first 1024 OIDs
	oids := make([]store.OID, chunk)
	for i := range oids {
		oids[i] = m.Store().Create("obj", nil).OID
	}
	last := oids[chunk-1]
	setup := m.Begin()
	for _, oid := range oids[:chunk-1] {
		if err := setup.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	w := m.Store().LockWord(last)

	deleter := m.Begin()
	if err := deleter.Delete(last); err != nil {
		t.Fatal(err)
	}
	woke := make(chan error, 1)
	go func() {
		waiter := m.Begin()
		_, _, err := waiter.Access(last) // queues behind the deleter
		if waiter.Holds(last) {
			err = errors.New("the waiter holds a word the store no longer has")
		}
		waiter.Abort()
		woke <- err
	}()
	waitFor(m, 1)
	if err := deleter.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Store().LockWord(last) != nil {
		t.Fatal("the committed deletion of the chunk's last object did not free the chunk")
	}
	if err := <-woke; err == nil || m.Store().Exists(last) {
		t.Fatalf("the woken waiter found an object: err=%v", err)
	}
	if v, waiting, edges := w.Load(), m.locks.waiters(), m.locks.edges(); v != 0 || waiting != 0 || edges != 0 {
		t.Fatalf("left behind: word=%#x waiting=%d edges=%d", v, waiting, edges)
	}
}

// TestDeadlockCycleThroughWords: three transactions each hold one object
// and request the next one's. The first two block; the third closes the
// cycle and is refused at once, every time, from the chain the wait
// edges and the words' holders form. Its abort lets the others finish,
// and no word keeps the wait bit the victim set.
func TestDeadlockCycleThroughWords(t *testing.T) {
	m := newManager(t)
	oids := make([]store.OID, 3)
	for i := range oids {
		oids[i] = m.Store().Create("obj", nil).OID
	}
	for round := 0; round < 50; round++ {
		txs := make([]*Tx, 3)
		for i := range txs {
			txs[i] = m.Begin()
			if _, _, err := txs[i].Access(oids[i]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(tx *Tx, next store.OID) {
				defer wg.Done()
				if _, _, err := tx.Access(next); err != nil {
					t.Errorf("round %d: a blocked transaction failed: %v", round, err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}(txs[i], oids[i+1])
			waitFor(m, i+1)
		}
		if _, _, err := txs[2].Access(oids[0]); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("round %d: the cycle's closing request got %v, want ErrDeadlock", round, err)
		}
		if err := txs[2].Abort(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if held, waiting, edges := heldOf(m, oids...), m.locks.waiters(), m.locks.edges(); held != 0 || waiting != 0 || edges != 0 {
			t.Fatalf("round %d: held=%d waiting=%d edges=%d", round, held, waiting, edges)
		}
	}
}

// TestPeekStepWhoseStepEndsTheTransaction: a step may end its own
// transaction (an action that aborts it), which releases the peeked lock
// already. Another transaction that takes the word before PeekStep
// returns keeps it: PeekStep's own release finds the word not its own.
func TestPeekStepWhoseStepEndsTheTransaction(t *testing.T) {
	m := newManager(t)
	oid := m.Store().Create("obj", nil).OID
	tx, other := m.Begin(), m.Begin()
	err := tx.PeekStep(oid, func(*store.Record) error {
		if err := tx.Abort(); err != nil {
			return err
		}
		_, _, err := other.Access(oid)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !other.Holds(oid) {
		t.Fatal("the ended transaction's PeekStep released another transaction's lock")
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if held := heldOf(m, oid); held != 0 {
		t.Fatalf("%d words left set", held)
	}
}
