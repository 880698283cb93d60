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
// The lock table is sharded by OID across numLockShards shards, each
// with its own mutex, so transactions touching different objects never
// contend on lock-manager state. Blocked requests sleep on a
// per-object FIFO of wake channels; a release wakes exactly one waiter
// of that object (no global broadcast, no thundering herd). A woken
// waiter re-checks under the shard mutex — a barging third transaction
// may have taken the lock in between, in which case the waiter
// re-queues.
//
// Deadlock detection uses a small dedicated waits-for structure
// (waitGraph) with its own mutex. It records tx→OID waiting edges and,
// only for contended objects, a mirror of the object's current holder.
// Both are updated while holding the owning shard's mutex, and the
// lock order is always shard mutex → graph mutex (the graph mutex is a
// leaf), so the cycle walk sees a consistent graph without touching
// any shard. Uncontended acquisitions and releases never touch the
// graph at all. Publishing the waiting edge and checking for a cycle
// happen atomically under the graph mutex, so of two transactions
// closing a cycle, the later one always sees the earlier one's edge —
// a real deadlock is always detected, and a stale edge can only cause
// a conservative (spurious) victim, never a missed cycle.
//
// Each transaction keeps the list of locks it was granted (Tx.held; lock
// reports a new grant, releaseAll takes the list), making releaseAll
// O(locks held) instead of O(all locks in the system) without a table
// of held sets here: a transaction acquires and releases its locks from
// one goroutine, so it is the list's only writer.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"ode/internal/fault"
	"ode/internal/store"
)

// ErrDeadlock is returned by a lock request that would create a
// waits-for cycle. The requesting transaction must abort.
var ErrDeadlock = errors.New("txn: deadlock detected")

// numLockShards is the number of lock-table shards (power of two).
const numLockShards = 64

// lockShard holds the lock table for one slice of the OID space.
type lockShard struct {
	mu     sync.Mutex
	holder map[store.OID]uint64          // object → holding transaction
	waitq  map[store.OID][]chan struct{} // FIFO of blocked requesters
	// mirrored marks objects whose holder is mirrored into the wait
	// graph because they have (or recently had) waiters.
	mirrored map[store.OID]bool
}

// waitGraph is the dedicated cross-shard waits-for structure. waiting
// has one edge per blocked transaction; holderOf mirrors the holder of
// contended objects only. Guarded by its own mutex, which is only ever
// acquired while holding at most one shard mutex (shard → graph
// order).
type waitGraph struct {
	mu       sync.Mutex
	waiting  map[uint64]store.OID
	holderOf map[store.OID]uint64
}

// wouldCycle reports whether firstHolder (transitively) waits for
// txID. Called with g.mu held. Each transaction waits on at most one
// object, so the graph is a set of chains; walk ours.
func (g *waitGraph) wouldCycle(txID, firstHolder uint64) bool {
	cur := firstHolder
	for steps := 0; steps <= len(g.waiting)+1; steps++ {
		if cur == txID {
			return true
		}
		oid, waits := g.waiting[cur]
		if !waits {
			return false
		}
		next, held := g.holderOf[oid]
		if !held {
			return false
		}
		cur = next
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
		lm.shards[i].holder = make(map[store.OID]uint64)
		lm.shards[i].waitq = make(map[store.OID][]chan struct{})
		lm.shards[i].mirrored = make(map[store.OID]bool)
	}
	lm.graph.waiting = make(map[uint64]store.OID)
	lm.graph.holderOf = make(map[store.OID]uint64)
	return lm
}

func (lm *lockManager) shardOf(oid store.OID) *lockShard {
	return &lm.shards[uint64(oid)%numLockShards]
}

// lock blocks until txID holds oid exclusively; granted reports that
// this call acquired the lock — the caller owes releaseAll the oid. A
// reentrant acquisition returns immediately with granted false. A
// request that would close a waits-for cycle fails with ErrDeadlock
// instead of blocking.
func (lm *lockManager) lock(txID uint64, oid store.OID) (granted bool, err error) {
	if lm.faults != nil {
		// Simulated lock-acquire timeout: surfaces to the requester
		// exactly like a deadlock victim — it must abort.
		if err := lm.faults.Check(fault.LockAcquire); err != nil {
			return false, fmt.Errorf("txn: lock %d: %w", uint64(oid), err)
		}
	}
	sh := lm.shardOf(oid)
	sh.mu.Lock()
	for {
		h, held := sh.holder[oid]
		if !held {
			sh.holder[oid] = txID
			if sh.mirrored[oid] {
				lm.graph.mu.Lock()
				if len(sh.waitq[oid]) > 0 {
					lm.graph.holderOf[oid] = txID
				} else {
					delete(lm.graph.holderOf, oid)
					delete(sh.mirrored, oid)
				}
				lm.graph.mu.Unlock()
			}
			sh.mu.Unlock()
			return true, nil
		}
		if h == txID {
			sh.mu.Unlock()
			return false, nil // reentrant
		}
		// Contended: publish our waiting edge (and the holder mirror)
		// and check for a cycle in one graph critical section.
		lm.graph.mu.Lock()
		if lm.graph.wouldCycle(txID, h) {
			lm.graph.mu.Unlock()
			sh.mu.Unlock()
			return false, ErrDeadlock
		}
		lm.graph.waiting[txID] = oid
		lm.graph.holderOf[oid] = h
		lm.graph.mu.Unlock()
		sh.mirrored[oid] = true
		ch := make(chan struct{})
		sh.waitq[oid] = append(sh.waitq[oid], ch)
		sh.mu.Unlock()
		<-ch
		sh.mu.Lock()
		lm.graph.mu.Lock()
		delete(lm.graph.waiting, txID)
		lm.graph.mu.Unlock()
	}
}

// releaseAll drops the locks txID was granted — held lists each once —
// and wakes one waiter per freed object. O(locks held by txID).
func (lm *lockManager) releaseAll(txID uint64, held []store.OID) {
	// Defensive: a victim that saw ErrDeadlock has already removed its
	// waiting edge, but clear any leftover.
	lm.graph.mu.Lock()
	delete(lm.graph.waiting, txID)
	lm.graph.mu.Unlock()
	for _, oid := range held {
		lm.release(txID, oid)
	}
}

// release drops txID's lock on oid, if it holds it, and wakes one waiter.
func (lm *lockManager) release(txID uint64, oid store.OID) {
	sh := lm.shardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.holder[oid] != txID {
		return
	}
	delete(sh.holder, oid)
	if sh.mirrored[oid] {
		lm.graph.mu.Lock()
		delete(lm.graph.holderOf, oid)
		lm.graph.mu.Unlock()
	}
	if q := sh.waitq[oid]; len(q) > 0 {
		ch := q[0]
		if len(q) == 1 {
			delete(sh.waitq, oid)
		} else {
			sh.waitq[oid] = q[1:]
		}
		close(ch)
	} else if sh.mirrored[oid] {
		delete(sh.mirrored, oid)
	}
}

// holds reports whether txID currently holds oid (for tests and
// assertions).
func (lm *lockManager) holds(txID uint64, oid store.OID) bool {
	sh := lm.shardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.holder[oid] == txID
}

// counts reports the total number of held locks and queued waiters
// across all shards — the quiescence check used by stress tests.
func (lm *lockManager) counts() (held, waiting int) {
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		held += len(sh.holder)
		for _, q := range sh.waitq {
			waiting += len(q)
		}
		sh.mu.Unlock()
	}
	return held, waiting
}

// graphSizes reports the waits-for graph population (edges, mirrored
// holders) — zero at quiescence.
func (lm *lockManager) graphSizes() (edges, mirrors int) {
	lm.graph.mu.Lock()
	defer lm.graph.mu.Unlock()
	return len(lm.graph.waiting), len(lm.graph.holderOf)
}

func (lm *lockManager) String() string {
	held, waiting := lm.counts()
	return fmt.Sprintf("lockManager{held=%d, waiting=%d}", held, waiting)
}
