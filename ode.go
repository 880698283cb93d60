// Package ode is an active object-oriented database with composite
// trigger events — a from-scratch Go implementation of the event
// specification model of Gehani, Jagadish & Shmueli, "Event
// Specification in an Active Object-Oriented Database" (SIGMOD 1992).
//
// The package provides:
//
//   - a persistent object store with object identity, schema'd classes,
//     member functions and transactions with object-level locking;
//   - the paper's full event language: basic events (object lifecycle,
//     method execution, time, transaction lifecycle), logical events
//     with masks, and composite events built from |, &, !, relative,
//     relative+, prior, sequence/;, choose, every, fa and faAbs;
//   - compilation of every trigger event into a minimized finite
//     automaton (one transition per posted event, one integer of
//     per-object state per active trigger — the §5 implementation);
//   - the Event-Action model of §7: all E-C-A coupling modes expressed
//     as event expressions (see the Coupling combinators);
//   - both §6 history views: committed-only (automaton state stored
//     with the object, rolled back on abort) and whole-history.
//
// # Quick start
//
//	db, _ := ode.Open(ode.Options{})
//	cls := db.NewClass("account").
//	    Field("balance", ode.KindInt, ode.Int(0)).
//	    Update("withdraw", ode.P("amount", ode.KindInt),
//	        func(ctx *ode.MethodCtx) (ode.Value, error) {
//	            b, _ := ctx.Get("balance")
//	            return ode.Null(), ctx.Set("balance", ode.Int(b.AsInt()-ctx.Arg("amount").AsInt()))
//	        }).
//	    Trigger("Large(): perpetual after withdraw(a) && a > 100 ==> report()",
//	        func(ctx *ode.ActionCtx) error {
//	            fmt.Println("large!", ctx.EventParam("amount")) // the completing happening's argument
//	            return nil
//	        })
//	if err := cls.Register(); err != nil { ... }
//
//	var acct ode.OID
//	db.Transact(func(tx *ode.Tx) error {
//	    acct, _ = tx.NewObject("account", nil)
//	    return tx.Activate(acct, "Large")
//	})
package ode

import (
	"fmt"
	"net/http"
	"time"

	"ode/internal/clock"
	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/evlang"
	"ode/internal/obs"
	"ode/internal/part"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// Core type aliases: the public API is a thin veneer over the engine.
type (
	// Value is a dynamically typed database value: build one with Int,
	// Float, Bool, Str, Time, ID or Null, switch on its Kind field and
	// read the payload with AsInt, AsFloat, AsBool, AsString, AsTime or
	// AsID (the payload fields themselves are not exported). A time
	// keeps its instant and its zone's offset from UTC, not the zone's
	// name or a monotonic reading.
	Value = value.Value
	// Kind discriminates Value payloads.
	Kind = value.Kind
	// OID is a persistent object identity.
	OID = store.OID
	// Tx is a transaction handle.
	Tx = engine.Tx
	// MethodCtx is passed to member-function implementations: Arg reads
	// one argument by declared name, Args returns them all in a map of
	// the caller's own.
	MethodCtx = engine.MethodCtx
	// ActionCtx is passed to trigger actions: Param/Params read the
	// trigger's activation parameters, EventParam/EventParams those of
	// the happening that completed the event (maps are the caller's own).
	ActionCtx = engine.ActionCtx
	// MethodImpl implements a member function.
	MethodImpl = engine.MethodImpl
	// ActionFunc implements a trigger action.
	ActionFunc = engine.ActionFunc
	// MaskFunc is a side-effect-free function callable from masks.
	MaskFunc = engine.MaskFunc
	// HistoryView selects the §6 history semantics of a trigger.
	HistoryView = schema.HistoryView
	// Clock is the engine's manually advanced virtual clock.
	Clock = clock.Virtual
	// TraceStage identifies which pipeline stage a FlightEvent records.
	TraceStage = obs.Stage
	// MetricsSnapshot is a point-in-time copy of the per-trigger and
	// per-class metrics (firing counts, mask evaluations, action-latency
	// histograms). It marshals to JSON.
	MetricsSnapshot = obs.Snapshot
	// Explanation is a trigger instance's firing provenance: the
	// recorded happening chain that drove its automaton to the current
	// state (see Database.Explain).
	Explanation = engine.Explanation
	// ProvStep is one recorded provenance step (happening kind, mask
	// bits, automaton from→to transition).
	ProvStep = obs.ProvStep
	// FlightEvent is one entry of the always-on flight recorder or of
	// the trace: one detection-pipeline stage (happening posted, mask
	// evaluated, automaton step, firing, ...).
	FlightEvent = obs.FlightEvent
	// FiringRecord is one entry of the durable firing-egress feed.
	FiringRecord = store.FiringRecord
)

// Value kinds.
const (
	KindNull   = value.KindNull
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindBool   = value.KindBool
	KindString = value.KindString
	KindTime   = value.KindTime
	KindID     = value.KindID
)

// Trace pipeline stages (the §5 detection pipeline plus transaction
// and timer lifecycle).
const (
	StageHappening = obs.StageHappening
	StageMask      = obs.StageMask
	StageStep      = obs.StageStep
	StageFire      = obs.StageFire
	StageTimer     = obs.StageTimer
	StageTxBegin   = obs.StageTxBegin
	StageTxCommit  = obs.StageTxCommit
	StageTxAbort   = obs.StageTxAbort
	StageTcomplete = obs.StageTcomplete
	StageEgress    = obs.StageEgress
	// StageBatch is one run of happenings of one kind on one class — a
	// PostBatch run, a cohort tick, a transaction's lifecycle run —
	// recorded once; From holds the run's count.
	StageBatch = obs.StageBatch
)

// History views (§6). Either way a trigger's automaton state is stored
// with the object, committed with it and durable; the view decides what
// an abort does with it.
const (
	// CommittedView sees only committed transactions' events: an abort
	// restores the trigger's state with the rest of the object.
	CommittedView = schema.CommittedView
	// WholeView sees every event including aborted transactions': an
	// abort restores the object but keeps what the trigger's automaton
	// has seen — its state, not its activation or its parameters, which
	// are transactional in both views — and makes that durable before the
	// aborting transaction's locks are released.
	WholeView = schema.WholeView
)

// Value constructors.
var (
	// Int returns an integer value.
	Int = value.Int
	// Float returns a floating-point value.
	Float = value.Float
	// Bool returns a boolean value.
	Bool = value.Bool
	// Str returns a string value.
	Str = value.Str
	// Null returns the null value.
	Null = value.Null
	// TimeVal returns a time value.
	TimeVal = value.Time
)

// Ref returns an object-reference value.
func Ref(oid OID) Value { return value.ID(uint64(oid)) }

// Errors re-exported from the runtime.
var (
	// ErrTabort reports that a trigger action aborted the transaction.
	ErrTabort = engine.ErrTabort
	// ErrTcompleteDiverged reports a non-quiescing commit fixpoint.
	ErrTcompleteDiverged = engine.ErrTcompleteDiverged
	// ErrDeadlock reports a lock-wait cycle; the transaction aborted.
	ErrDeadlock = txn.ErrDeadlock
	// ErrCascadeDepth reports method calls and trigger actions nested too
	// deep in one transaction — a runaway cascade; the transaction aborted.
	ErrCascadeDepth = engine.ErrCascadeDepth
)

// PanicError is a panic in a method body, a trigger action, a mask
// function or Transact's fn, recovered by the runtime; the transaction it
// ran in aborted.
type PanicError = engine.PanicError

// Options configures a Database.
type Options struct {
	// Dir is the persistence directory ("" = in-memory only).
	Dir string
	// Start is the initial virtual time (zero = 2000-01-01 UTC).
	Start time.Time
	// FlightBuffer sizes the always-on flight recorder (rounded up to a
	// power of two; 0 = the default capacity). The recorder cannot be
	// disabled — it is the post-incident record of recent pipeline
	// events and costs a handful of atomic stores per happening.
	FlightBuffer int
	// ProvenanceBytes bounds the memory, per engine (per partition when
	// partitioned), that keeps recent automaton transitions for Explain;
	// the oldest are overwritten first (0 = 4 MiB, a negative value
	// disables provenance capture).
	ProvenanceBytes int
	// Partitions splits the database into that many single-writer
	// partitions, each an event-loop goroutine owning a disjoint OID
	// residue class with its own store, WAL and committed view; a
	// sequenced bus forwards cross-partition events (see internal/part).
	// Values <= 1 (the default) keep today's single-engine semantics —
	// one engine, shared by all callers under object locking. With
	// Partitions >= 2, transactions are partition-local: use TransactOn
	// to place work, Advance (not Clock().Advance) to move time, and
	// RelayCall to forward events across partitions. Begin is not
	// available in partitioned mode.
	Partitions int
}

// Database is an active object database.
type Database struct {
	eng   *engine.Engine
	parts *part.DB // non-nil iff Options.Partitions >= 2
}

// Open creates or reopens a database.
func Open(opts Options) (*Database, error) {
	eopts := engine.Options{
		Dir:             opts.Dir,
		Start:           opts.Start,
		FlightBuffer:    opts.FlightBuffer,
		ProvenanceBytes: opts.ProvenanceBytes,
	}
	if opts.Partitions >= 2 {
		parts, err := part.Open(part.Options{N: opts.Partitions, Dir: opts.Dir, Engine: eopts})
		if err != nil {
			return nil, err
		}
		return &Database{eng: parts.Partition(0).Engine(), parts: parts}, nil
	}
	eng, err := engine.New(eopts)
	if err != nil {
		return nil, err
	}
	return &Database{eng: eng}, nil
}

// Close releases the database.
func (db *Database) Close() error {
	if db.parts != nil {
		return db.parts.Close()
	}
	return db.eng.Close()
}

// Partitions returns the partition count (1 for an unpartitioned
// database).
func (db *Database) Partitions() int {
	if db.parts == nil {
		return 1
	}
	return db.parts.N()
}

// PartitionOf returns the partition owning oid (always 0 when
// unpartitioned). Routing is arithmetic over the OID — (oid-1) mod N —
// so it is stable across restarts.
func (db *Database) PartitionOf(oid OID) int {
	if db.parts == nil {
		return 0
	}
	return db.parts.PartitionOf(oid)
}

// Parts exposes the partitioned runtime (nil when unpartitioned) for
// advanced integration — per-partition engines, the bus, aggregate
// debug endpoints.
func (db *Database) Parts() *part.DB { return db.parts }

// Begin starts a transaction; the caller must Commit or Abort it.
// Not available in partitioned mode (transactions must run inside
// their partition's loop): use Transact or TransactOn instead.
func (db *Database) Begin() *Tx {
	if db.parts != nil {
		panic("ode: Begin is not available with Partitions >= 2; use TransactOn")
	}
	return db.eng.Begin()
}

// Transact runs fn in a transaction, committing on nil and aborting on
// error. In partitioned mode the transaction runs inside partition 0's
// loop and sees only partition 0's objects; use TransactOn to place
// work on other partitions.
func (db *Database) Transact(fn func(*Tx) error) error {
	if db.parts != nil {
		return db.parts.Transact(0, fn)
	}
	return db.eng.Transact(fn)
}

// TransactOn runs fn in a transaction inside partition p's event loop.
// The transaction is partition-local: it sees exactly the objects
// partition p owns, and objects it creates are owned by p. On an
// unpartitioned database p must be 0.
func (db *Database) TransactOn(p int, fn func(*Tx) error) error {
	if db.parts != nil {
		return db.parts.Transact(p, fn)
	}
	if p != 0 {
		return fmt.Errorf("ode: partition %d does not exist (database is unpartitioned)", p)
	}
	return db.eng.Transact(fn)
}

// RelayCall forwards a method call to oid's owning partition across
// the sequenced cross-partition bus: it is posted there in its own
// transaction, after the partition's current work, in deterministic
// (source, sequence) order. src is the sending partition's id (what
// TransactOn ran on), or a negative value for external senders. On an
// unpartitioned database the call executes synchronously in its own
// transaction. Call Drain to wait for relayed work.
func (db *Database) RelayCall(src int, oid OID, method string, args ...Value) {
	if db.parts != nil {
		db.parts.RelayCall(src, oid, method, args...)
		return
	}
	db.eng.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, method, args...)
		return err
	})
}

// Drain blocks until every submitted transaction and every in-flight
// bus message has executed (no-op when unpartitioned). The barrier is
// only meaningful once concurrent submitters have stopped.
func (db *Database) Drain() {
	if db.parts != nil {
		db.parts.Drain()
	}
}

// Clock returns the database's virtual clock; advancing it fires due
// time events. Advance it outside of transactions. In partitioned mode
// this is partition 0's clock and is read-only for callers — use
// Database.Advance, which moves every partition's clock inside its own
// loop.
func (db *Database) Clock() *Clock { return db.eng.Clock() }

// Advance moves virtual time forward by d and delivers due time
// events. In partitioned mode every partition's clock advances inside
// its own event loop, so `every`/`at` triggers fire in the loop that
// owns their object; unpartitioned databases advance the single clock
// directly.
func (db *Database) Advance(d time.Duration) error {
	if db.parts != nil {
		return db.parts.Advance(d)
	}
	db.eng.Clock().Advance(d)
	return nil
}

// Batch is a columnar buffer of method calls against objects of one
// class, posted with Tx.PostBatch or Database.PostBatch. Posting a
// batch is semantically identical to issuing tx.Call for each entry in
// order (results discarded, stopping at the first error) but amortizes
// per-call costs — method resolution, argument binding, metric updates
// — across the whole run. Reset and refill a Batch to reuse its cached
// posting plan.
type Batch = engine.Batch

// NewBatch returns an empty batch for objects of the named class with
// room for capacity entries.
func NewBatch(class string, capacity int) *Batch { return engine.NewBatch(class, capacity) }

// PostBatch executes the batch's method calls in one transaction,
// committing on success and aborting on the first error. In
// partitioned mode the batch's columns are split by owning partition
// and each piece posts inside its partition's loop — entry order is
// preserved within each partition and atomicity is per partition.
func (db *Database) PostBatch(b *Batch) error {
	if db.parts != nil {
		return db.parts.PostBatch(b)
	}
	return db.eng.Transact(func(tx *Tx) error { return tx.PostBatch(b) })
}

// RegisterFunc installs a global mask function (e.g. user()) on every
// partition.
func (db *Database) RegisterFunc(name string, fn MaskFunc) {
	if db.parts != nil {
		db.parts.Register(func(_ int, e *engine.Engine) error {
			e.RegisterFunc(name, fn)
			return nil
		})
		return
	}
	db.eng.RegisterFunc(name, fn)
}

// Checkpoint snapshots the store and truncates the write-ahead log
// (every partition's, in partition order, when partitioned).
func (db *Database) Checkpoint() error {
	if db.parts != nil {
		return db.parts.Checkpoint()
	}
	return db.eng.Checkpoint()
}

// RearmTimers reschedules time events for active triggers after
// reopening a persistent database. In partitioned mode each
// partition's timers rearm inside its own loop, so rearmed timers
// fire — like all timers — in the loop owning their object.
func (db *Database) RearmTimers() error {
	if db.parts != nil {
		return db.parts.RearmTimers()
	}
	return db.eng.RearmTimers()
}

// TriggerState reports a trigger instance's automaton state and
// activation flag — the paper's "one word per active trigger per
// object" is directly inspectable. Routed through the owning
// partition's loop when partitioned.
func (db *Database) TriggerState(oid OID, trigger string) (state int, active bool, err error) {
	if db.parts != nil {
		return db.parts.TriggerState(oid, trigger)
	}
	return db.eng.TriggerState(oid, trigger)
}

// History returns an object's happening records from the trace, oldest
// first; record i is point i+1 of its history. It fails unless tracing
// was on (EnableTracing) from before the object was created and the
// trace has not lapped.
func (db *Database) History(oid OID) ([]FlightEvent, error) { return db.eng.History(oid) }

// QueryHistory evaluates a mask-free event expression over an object's
// history (History) and returns the points at which the event occurred
// — offline "history expressions" (the paper's §9 future-work
// direction).
func (db *Database) QueryHistory(oid OID, eventSrc string) ([]uint64, error) {
	return db.eng.QueryHistory(oid, eventSrc)
}

// Engine exposes the underlying runtime for advanced integration.
func (db *Database) Engine() *engine.Engine { return db.eng }

// Stats is the engine's cumulative counter snapshot.
type Stats = engine.Stats

// Stats returns cumulative engine counters (transactions, happenings,
// automaton steps, mask evaluations, firings, timer deliveries). In
// partitioned mode the snapshot is the field-wise sum over every
// partition (compile-cache counters, which are process-wide, are taken
// once); use Parts().PartitionStats for the per-partition breakdown.
func (db *Database) Stats() Stats {
	if db.parts != nil {
		return db.parts.Stats()
	}
	return db.eng.Stats()
}

// StatsDelta returns the activity between two Stats snapshots: each
// counter as cur - prev, each gauge at its value in cur (see Stats).
func StatsDelta(cur, prev Stats) Stats { return engine.StatsDelta(cur, prev) }

// EnableTracing turns on pipeline tracing into a fresh recorder
// retaining the last capacity events (rounded up to a power of two;
// <= 0 uses the default) and returns it. Safe to call at any time,
// including while other goroutines post events. A partitioned database
// traces partition 0; Parts().Partition(p).Engine() reaches the others.
func (db *Database) EnableTracing(capacity int) *obs.Flight { return db.eng.EnableTracing(capacity) }

// DisableTracing turns pipeline tracing off. The disabled hot path
// costs one atomic load and adds no allocation.
func (db *Database) DisableTracing() { db.eng.DisableTracing() }

// TracingEnabled reports whether tracing is on.
func (db *Database) TracingEnabled() bool { return db.eng.TracingEnabled() }

// TraceEvents returns the last trace events in chronological order
// (last <= 0 means all retained), or nil when tracing is disabled.
func (db *Database) TraceEvents(last int) []FlightEvent { return db.eng.TraceEvents(last) }

// Metrics returns a snapshot of the per-trigger and per-class metrics.
// Metrics are always collected; they do not require tracing. In
// partitioned mode the snapshot merges every partition's registry
// (counters summed, latency histograms merged bucket-wise).
func (db *Database) Metrics() MetricsSnapshot {
	if db.parts != nil {
		return db.parts.Metrics()
	}
	return db.eng.Metrics().Snapshot()
}

// Explain returns the firing provenance of a trigger instance: the
// recorded chain of happenings (with mask bits and automaton from→to
// transitions) that drove it to its current state, ending at its most
// recent firing if it has fired. It answers "why did this trigger
// fire?" from the live system, no tracing required. Routed through the
// owning partition when partitioned.
func (db *Database) Explain(trigger string, oid OID) (*Explanation, error) {
	if db.parts != nil {
		return db.parts.Explain(trigger, oid)
	}
	return db.eng.Explain(trigger, oid)
}

// FlightEvents returns the most recent events from the always-on
// flight recorder in chronological order (last <= 0 means all
// retained). In partitioned mode every partition's window is merged by
// virtual timestamp, and each event's Part field reports the partition
// whose recorder captured it.
func (db *Database) FlightEvents(last int) []FlightEvent {
	if db.parts != nil {
		return db.parts.FlightEvents(last)
	}
	return db.eng.FlightEvents(last)
}

// Firings returns feed records with position > after from the durable
// firing-egress feed (max <= 0 means no limit) plus the current feed
// head. Positions are per-partition sequence numbers when
// unpartitioned, 1-based merged-feed indexes when partitioned (see
// FeedSource for the stability contract of each).
func (db *Database) Firings(after uint64, max int) ([]FiringRecord, uint64) {
	if db.parts != nil {
		return db.parts.FiringsAfter(after, max)
	}
	return db.eng.FiringsAfter(after, max)
}

// FeedSource returns the database's firing feed as an egress.Source —
// the handle Subscribe and NewDeliverer consume. Unpartitioned, it is
// the engine's own durable log (positions are firing sequence
// numbers); partitioned, the merged total-order feed.
func (db *Database) FeedSource() egress.Source {
	if db.parts != nil {
		return db.parts
	}
	return db.eng
}

// DebugHandler returns the live introspection HTTP handler serving
// /debug/stats, /debug/triggers, /debug/trace?last=N, /debug/why,
// /debug/metrics, /debug/flight, /debug/feed, /debug/vars and
// /debug/pprof/. A
// partitioned database serves aggregate /debug/stats, /debug/metrics
// and /debug/flight, with each partition's full handler mounted under
// /debug/partition/<p>/.
func (db *Database) DebugHandler() http.Handler {
	if db.parts != nil {
		return db.parts.DebugHandler()
	}
	return db.eng.DebugHandler()
}

// ServeDebug starts an HTTP listener serving DebugHandler on addr
// ("auto" binds a free localhost port) and returns the bound address.
// The listener runs until Close.
func (db *Database) ServeDebug(addr string) (string, error) {
	if db.parts != nil {
		return db.parts.ServeDebug(addr)
	}
	return db.eng.ServeDebug(addr)
}

// P declares a parameter for Method/Update/Read/TriggerP builders.
func P(name string, kind Kind) schema.Param { return schema.Param{Name: name, Kind: kind} }

// Param is a method or trigger parameter declaration.
type Param = schema.Param

// Defines is a reusable set of #define-style event abbreviations.
type Defines struct{ ps *evlang.Parser }

// NewDefines creates an empty abbreviation set.
func NewDefines() *Defines { return &Defines{ps: evlang.NewParser()} }

// Add parses and registers an abbreviation; it panics on a syntax
// error (definitions are compile-time artifacts).
func (d *Defines) Add(name, src string) *Defines {
	if err := d.ps.Define(name, src); err != nil {
		panic(err)
	}
	return d
}
