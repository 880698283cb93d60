// Package part is the partitioned scale-out layer over the engine: N
// single-writer partitions, each a blocking-FIFO event loop that owns
// a disjoint OID residue class with its own object table, its own WAL
// (recovery runs per-partition and rejects another class's objects) and
// its own lock-free committed epoch view. Because exactly one goroutine — the partition's loop —
// drives every transaction over a partition's engine, the in-partition
// hot path drops per-object lock acquisition entirely (the engine runs
// with txn single-writer mode on) and the compiled batch posting path
// executes lock-free inside the loop.
//
// The paper keeps all per-trigger state as one integer per (object,
// trigger) (§4), which is what makes object-range partitioning cheap:
// a partition boundary never splits trigger state. Ownership is
// arithmetic, not a table: partition p of N allocates OIDs from the
// residue class p+1, p+1+N, p+1+2N, … (store.Options.OIDBase/OIDStride),
// so PartitionOf(oid) = (oid-1) mod N recomputes the owner from the
// OID alone and routing is stable across restarts by construction.
//
// Events that span partitions ride an explicitly sequenced bus (see
// bus.go): primitive occurrences are forwarded with a (source
// partition, sequence) stamp and each loop merges its pending inbox in
// (seq, source) order between jobs, so for a fixed schedule the order
// in which forwarded events reach a partition's automata is a pure
// function of the schedule — the trace checker (internal/oracle), one per
// partition, passes unchanged on multi-partition runs.
package part

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/store"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("part: database is closed")

// Options configures a partitioned database.
type Options struct {
	// N is the partition count (values < 1 mean 1).
	N int
	// Dir is the persistence root; partition p persists under
	// Dir/p<p>. Empty means every partition is volatile.
	Dir string
	// Engine is the per-partition engine template. Dir, OIDBase,
	// OIDStride, SingleWriter and Partition are overridden per
	// partition; everything else (Faults, flight and provenance sizing,
	// …) applies to each partition alike.
	Engine engine.Options
	// PerPartition, when set, customizes partition p's engine options
	// after the standard overrides — e.g. the sim harness installs a
	// distinct fault registry per partition so WAL faults can target
	// one partition's log.
	PerPartition func(p int, eo *engine.Options)
}

// job is one unit of work executed inside a partition's loop.
type job struct {
	fn   func(*engine.Engine) error
	done chan error // nil → fire-and-forget
}

// Partition is one single-writer slice of the database: an engine
// whose transactions are all driven by the partition's loop goroutine.
type Partition struct {
	id  int
	db  *DB
	eng *engine.Engine

	in      chan job      // blocking FIFO of submitted work
	wake    chan struct{} // capacity 1; nudges an idle loop to drain the bus
	stopped chan struct{} // closed when the loop exits

	// Sequenced cross-partition bus endpoint (bus.go): inbox holds
	// messages other partitions forwarded here; seqOut stamps messages
	// this partition (or an external caller on its behalf) sends.
	busMu  sync.Mutex
	inbox  []busMsg
	seqOut atomic.Uint64

	relayMu   sync.Mutex
	relayErrs []error
}

// DB is a partitioned database: a router over N partitions plus the
// cross-partition bus.
type DB struct {
	opts    Options
	parts   []*Partition
	pending atomic.Int64 // submitted-but-unfinished jobs and bus messages
	closed  atomic.Bool

	debugMu   sync.Mutex
	debugSrvs []*http.Server

	// Merged total-order firing feed (egress.go): a position index
	// over the partitions' own logs. feed[pos-1] locates a position's
	// record; feedAt[p][i] is the position of partition p's i-th.
	feedMu   sync.Mutex
	feed     []feedEntry
	feedAt   [][]uint64
	feedWake egress.Notifier // NotifyFirings' readers
}

// Open starts a partitioned database: each partition opens (and, when
// persistent, recovers) its own engine, then starts its loop.
func Open(opts Options) (*DB, error) {
	n := opts.N
	if n < 1 {
		n = 1
	}
	opts.N = n
	db := &DB{opts: opts}
	for p := 0; p < n; p++ {
		eo := opts.Engine
		eo.Dir = ""
		if opts.Dir != "" {
			eo.Dir = filepath.Join(opts.Dir, fmt.Sprintf("p%d", p))
			if err := os.MkdirAll(eo.Dir, 0o755); err != nil {
				db.closePartial()
				return nil, fmt.Errorf("part: partition %d dir: %w", p, err)
			}
		}
		eo.OIDBase = uint64(p + 1)
		eo.OIDStride = uint64(n)
		eo.SingleWriter = true
		eo.Partition = p
		if opts.PerPartition != nil {
			opts.PerPartition(p, &eo)
		}
		eng, err := engine.New(eo)
		if err != nil {
			db.closePartial()
			return nil, fmt.Errorf("part: partition %d: %w", p, err)
		}
		pt := &Partition{
			id:      p,
			db:      db,
			eng:     eng,
			in:      make(chan job),
			wake:    make(chan struct{}, 1),
			stopped: make(chan struct{}),
		}
		db.parts = append(db.parts, pt)
	}
	// Index the recovered per-partition egress logs as the global feed
	// and hook live spans in, before any loop can commit.
	db.seedFeed()
	for _, pt := range db.parts {
		pt.eng.SetFiringSink(func(sp store.FiringSpan) { db.appendFeed(pt.id, sp) })
	}
	for _, pt := range db.parts {
		go pt.loop()
	}
	return db, nil
}

// closePartial tears down the engines of a failed Open (loops have not
// started yet).
func (db *DB) closePartial() {
	for _, pt := range db.parts {
		pt.eng.Close()
	}
}

// N returns the partition count.
func (db *DB) N() int { return len(db.parts) }

// Partition returns partition p.
func (db *DB) Partition(p int) *Partition { return db.parts[p] }

// ID returns the partition's id.
func (p *Partition) ID() int { return p.id }

// Engine returns the partition's engine. Mutating calls (transactions,
// clock advances) must go through Do/Transact so they run inside the
// loop; reads of always-consistent state (Stats, flight recorder,
// metrics) are safe directly.
func (p *Partition) Engine() *engine.Engine { return p.eng }

// Close drains outstanding work, stops every loop and closes every
// partition engine.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.drainPending()
	db.debugMu.Lock()
	srvs := db.debugSrvs
	db.debugSrvs = nil
	db.debugMu.Unlock()
	for _, s := range srvs {
		s.Close()
	}
	var first error
	for _, pt := range db.parts {
		close(pt.in)
	}
	for _, pt := range db.parts {
		<-pt.stopped
		if err := pt.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// loop is the partition's single writer: it executes submitted jobs in
// FIFO order and merges the bus inbox (deterministically, see bus.go)
// between jobs and whenever woken while idle. All transactions over
// the partition's engine happen on this goroutine — that is what makes
// single-writer (lock-free) mode sound.
func (p *Partition) loop() {
	for {
		select {
		case j, ok := <-p.in:
			if !ok {
				p.drainBus()
				close(p.stopped)
				return
			}
			err := p.run(j)
			if j.done != nil {
				j.done <- err
			}
			p.db.pending.Add(-1)
			p.drainBus()
		case <-p.wake:
			p.drainBus()
		}
	}
}

// run executes a job: one that panics fails, not the partition. The
// transaction the panic unwound through is already aborted when it was a
// Transact's. Any other one left open holds uncommitted writes in the
// live records, so the panic goes on and stops the process, as an
// unrecovered one would.
func (p *Partition) run(j job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if s := p.eng.Stats(); s.TxBegun != s.TxCommitted+s.TxAborted {
				panic(v)
			}
			err = fmt.Errorf("part: job panicked: %v\n%s", v, debug.Stack())
			if j.done == nil {
				p.recordRelayErr(err)
			}
		}
	}()
	return j.fn(p.eng)
}

// Do runs fn inside partition p's loop and waits for it. fn receives
// the partition's engine and may run transactions on it. Calling Do
// from inside a job on the same partition would deadlock — from a
// trigger action, forward work with Relay instead.
func (db *DB) Do(p int, fn func(*engine.Engine) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	done := make(chan error, 1)
	db.pending.Add(1)
	db.parts[p].in <- job{fn: fn, done: done}
	return <-done
}

// DoAsync submits fn to partition p's loop without waiting. done, when
// non-nil, receives fn's result (it must have capacity ≥ 1; callers
// reuse one channel across submissions to keep steady-state submission
// allocation-free).
func (db *DB) DoAsync(p int, fn func(*engine.Engine) error, done chan error) {
	if db.closed.Load() {
		if done != nil {
			done <- ErrClosed
		}
		return
	}
	db.pending.Add(1)
	db.parts[p].in <- job{fn: fn, done: done}
}

// Transact runs fn in a transaction inside partition p's loop,
// committing on nil and aborting on error. The transaction sees only
// partition p's objects.
func (db *DB) Transact(p int, fn func(*engine.Tx) error) error {
	return db.Do(p, func(e *engine.Engine) error { return e.Transact(fn) })
}

// Drain blocks until the database is quiescent: every submitted job
// and every in-flight bus message has executed and no new ones were
// produced. The caller must ensure no concurrent submitters are
// active; Drain is the barrier the sim harness and benchmarks use
// before asserting on cross-partition state.
func (db *DB) Drain() { db.drainPending() }

func (db *DB) drainPending() {
	for db.pending.Load() != 0 {
		runtime.Gosched()
	}
}

// Advance moves every partition's virtual clock forward by d, inside
// each partition's loop in partition order, so due timers post their
// time events from the owning loop — never from the caller's
// goroutine. This is what makes timer delivery partition-aware: an
// `every`/`at` trigger on an object in partition p fires inside p's
// single-writer loop, exactly like any other happening on p.
func (db *DB) Advance(d time.Duration) error {
	var first error
	for p := range db.parts {
		err := db.Do(p, func(e *engine.Engine) error {
			e.Clock().Advance(d)
			return nil
		})
		if err != nil && first == nil {
			first = err
		}
	}
	db.Drain() // timers may have relayed cross-partition work
	return first
}

// Now returns partition 0's virtual time (Advance keeps all partition
// clocks in lockstep).
func (db *DB) Now() time.Time { return db.parts[0].eng.Clock().Now() }

// RearmTimers re-creates the volatile timer schedule of every
// partition after reopening a persistent database, inside each owning
// loop.
func (db *DB) RearmTimers() error {
	for p := range db.parts {
		if err := db.Do(p, (*engine.Engine).RearmTimers); err != nil {
			return fmt.Errorf("part: partition %d: %w", p, err)
		}
	}
	return nil
}

// Checkpoint snapshots every partition's store and truncates its WAL.
func (db *DB) Checkpoint() error {
	for p := range db.parts {
		if err := db.Do(p, (*engine.Engine).Checkpoint); err != nil {
			return fmt.Errorf("part: partition %d: %w", p, err)
		}
	}
	return nil
}

// Register applies a registration function to every partition's engine
// in partition order — class and mask-function registration must reach
// all partitions (an object of any class may live in any of them). The
// callback receives the partition id so actions it binds can capture
// their partition (e.g. to Relay). Registration does not go through
// the loops: engine registration takes the engine's own locks and is
// safe concurrently with posting.
func (db *DB) Register(fn func(p int, e *engine.Engine) error) error {
	for _, pt := range db.parts {
		if err := fn(pt.id, pt.eng); err != nil {
			return fmt.Errorf("part: partition %d: %w", pt.id, err)
		}
	}
	return nil
}

// TriggerState reports a trigger instance's automaton state from its
// owning partition (routed through the loop: the live record may be
// mid-transaction otherwise).
func (db *DB) TriggerState(oid store.OID, trigger string) (state int, active bool, err error) {
	p := db.PartitionOf(oid)
	err = db.Do(p, func(e *engine.Engine) error {
		var ierr error
		state, active, ierr = e.TriggerState(oid, trigger)
		return ierr
	})
	return state, active, err
}

// Explain returns the firing provenance of a trigger instance from its
// owning partition.
func (db *DB) Explain(trigger string, oid store.OID) (*engine.Explanation, error) {
	var ex *engine.Explanation
	err := db.Do(db.PartitionOf(oid), func(e *engine.Engine) error {
		var ierr error
		ex, ierr = e.Explain(trigger, oid)
		return ierr
	})
	return ex, err
}
