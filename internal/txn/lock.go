// Package txn implements the transaction substrate the paper assumes:
// atomic transactions over objects with object-level locking (§6),
// undo on abort, and commit dependencies (§7 footnote 6: "if
// transaction t2 is commit dependent on t1, then t2 is not allowed to
// commit until t1 has; if t1 eventually aborts, so must t2").
//
// Locking is exclusive and object-granular. Exclusive (rather than
// shared/exclusive) locks are a deliberate choice: posting any event
// to an object — including a read — advances the stored automaton
// state of the object's committed-view triggers, so even "read-only"
// accesses write the record. Deadlocks are detected by following the
// waits-for chain at block time; the requester that would close a
// cycle receives ErrDeadlock and is expected to abort.
//
// # Concurrency scheme
//
// An object's lock is one word in its store slot (store.LockWord):
// holder<<1 | waitBit, where holder is the locking transaction's tag and
// 0 means free. An uncontended lock is CAS(0, me), a reentrant request
// one load, and a release CAS(me, 0): no mutex and no map. The tag is
// drawn from one counter for the whole process (lockTags), because the
// words live in the store and two managers over one store must never
// tag them alike.
//
// Only contention takes a mutex. The waiters of an object queue on a
// per-object FIFO of wake channels in one of numLockShards shards, under
// the shard's mutex; waitBit says the word may have waiters, and it is
// set and cleared only under that mutex. A holder whose release CAS
// fails because the bit is set takes the mutex, wakes exactly one
// waiter (no broadcast, no thundering herd) and leaves the word free: 0
// if no waiter remains, waitBit if one does. A woken waiter re-checks
// under the mutex — a barging transaction may have taken the word in
// between, in which case the waiter re-queues. A deadlock victim may
// leave the bit set over an empty queue; the holder's release clears it.
//
// Deadlock detection uses a small waits-for structure (waitGraph) with
// its own mutex: one edge per blocked transaction, to the word it waits
// on. The cycle walk reads each waited-on word's holder from the word
// itself. A word's holder cannot change while that holder is blocked —
// only the holder releases it — and the first holder cannot release
// while the requester holds the shard mutex over a word with the bit
// set, so the chain holds still while the walk reads it. Edges are
// published and removed under the owning shard's mutex and the lock
// order is always shard mutex → graph mutex (the graph mutex is a leaf).
// Publishing the edge and checking for a cycle happen atomically under
// the graph mutex, so of two transactions closing a cycle, the later one
// always sees the earlier one's edge — a real deadlock is always
// detected, and a stale edge can only cause a conservative (spurious)
// victim, never a missed cycle.
//
// Each transaction keeps the words it was granted, with their OIDs
// (Tx.held), and releases through them, never through a second lookup:
// an undone creation or a committed deletion may free the object's
// chunk before the release, and the word lives on until its last
// holder or waiter lets go of it. A transaction acquires and releases
// its locks from one goroutine, so it is the list's only writer.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ode/internal/fault"
	"ode/internal/store"
)

// ErrDeadlock is returned by a lock request that would create a
// waits-for cycle. The requesting transaction must abort.
var ErrDeadlock = errors.New("txn: deadlock detected")

// numLockShards is the number of wait-queue shards (power of two).
const numLockShards = 64

// waitBit marks a lock word whose object may have queued waiters.
const waitBit = 1

// lockTags numbers the transactions that take a lock, process-wide.
var lockTags atomic.Uint64

// lockShard holds the wait queues of one slice of the OID space.
type lockShard struct {
	mu    sync.Mutex
	waitq map[store.OID][]chan struct{} // FIFO of blocked requesters
}

// waitGraph is the cross-shard waits-for structure: one edge per
// blocked transaction, to the lock word it waits on. Guarded by its own
// mutex, which is only ever acquired while holding at most one shard
// mutex (shard → graph order).
type waitGraph struct {
	mu      sync.Mutex
	waiting map[uint64]*atomic.Uint64
}

// wouldCycle reports whether firstHolder (transitively) waits for me.
// Called with g.mu held. Each transaction waits on at most one object,
// so the graph is a set of chains; walk ours.
func (g *waitGraph) wouldCycle(me, firstHolder uint64) bool {
	cur := firstHolder
	for steps := 0; steps <= len(g.waiting)+1; steps++ {
		if cur == me {
			return true
		}
		w, waits := g.waiting[cur]
		if !waits {
			return false
		}
		if cur = w.Load() >> 1; cur == 0 {
			return false
		}
	}
	return true // defensive: treat an over-long walk as a cycle
}

// lockManager grants exclusive, reentrant object locks.
type lockManager struct {
	shards [numLockShards]lockShard
	graph  waitGraph
	faults *fault.Registry // nil outside the simulation harness
}

func newLockManager(faults *fault.Registry) *lockManager {
	lm := &lockManager{faults: faults}
	for i := range lm.shards {
		lm.shards[i].waitq = make(map[store.OID][]chan struct{})
	}
	lm.graph.waiting = make(map[uint64]*atomic.Uint64)
	return lm
}

func (lm *lockManager) shardOf(oid store.OID) *lockShard {
	return &lm.shards[uint64(oid)%numLockShards]
}

// lock blocks until the transaction tagged me holds w, oid's lock word;
// granted reports that this call acquired it — the caller owes release
// the word. A reentrant acquisition returns immediately with granted
// false. A request that would close a waits-for cycle fails with
// ErrDeadlock instead of blocking.
func (lm *lockManager) lock(me uint64, oid store.OID, w *atomic.Uint64) (granted bool, err error) {
	if lm.faults != nil {
		// Simulated lock-acquire timeout: surfaces to the requester
		// exactly like a deadlock victim — it must abort.
		if err := lm.faults.Check(fault.LockAcquire); err != nil {
			return false, fmt.Errorf("txn: lock %d: %w", uint64(oid), err)
		}
	}
	if w.CompareAndSwap(0, me<<1) {
		return true, nil
	} else if w.Load()>>1 == me {
		return false, nil // reentrant
	}
	sh := lm.shardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		v := w.Load()
		h := v >> 1
		if h == 0 {
			// Free; a waiter still queued keeps the bit.
			if w.CompareAndSwap(v, me<<1|v&waitBit) {
				return true, nil
			}
			continue
		}
		if v&waitBit == 0 && !w.CompareAndSwap(v, v|waitBit) {
			continue // released or barged meanwhile
		}
		// The bit is set, so h cannot release without this mutex: publish
		// our waiting edge and check for a cycle in one graph critical
		// section.
		lm.graph.mu.Lock()
		if lm.graph.wouldCycle(me, h) {
			lm.graph.mu.Unlock()
			return false, ErrDeadlock
		}
		lm.graph.waiting[me] = w
		lm.graph.mu.Unlock()
		ch := make(chan struct{})
		sh.waitq[oid] = append(sh.waitq[oid], ch)
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
		lm.graph.mu.Lock()
		delete(lm.graph.waiting, me)
		lm.graph.mu.Unlock()
	}
}

// release drops w, oid's lock word, if the transaction tagged me holds
// it, and wakes one waiter if the word says it may have some.
func (lm *lockManager) release(me uint64, oid store.OID, w *atomic.Uint64) {
	if w.CompareAndSwap(me<<1, 0) {
		return
	}
	sh := lm.shardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.Load()>>1 != me {
		return // released already: a step that ended its transaction
	}
	var left uint64
	if q := sh.waitq[oid]; len(q) > 1 {
		close(q[0])
		sh.waitq[oid], left = q[1:], waitBit
	} else if len(q) == 1 {
		close(q[0])
		delete(sh.waitq, oid)
	}
	w.Store(left)
}

// waiters reports the number of queued waiters across all shards — the
// quiescence check used by tests, with their own objects' words.
func (lm *lockManager) waiters() (n int) {
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		for _, q := range sh.waitq {
			n += len(q)
		}
		sh.mu.Unlock()
	}
	return n
}

// edges reports the waits-for graph population — zero at quiescence.
func (lm *lockManager) edges() int {
	lm.graph.mu.Lock()
	defer lm.graph.mu.Unlock()
	return len(lm.graph.waiting)
}
