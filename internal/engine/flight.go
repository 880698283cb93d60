package engine

import (
	"math"
	"sync/atomic"

	"ode/internal/obs"
	"ode/internal/store"
)

// The engine's event recorders, both obs.Flight rings over the engine's
// one intern table. The always-on flight recorder runs unconditionally:
// each record is a handful of atomic stores with interned uint16 name
// IDs, no allocation and no lock, so the masked non-firing posting hot
// path keeps its zero-alloc budget. It captures pipeline-level events
// only — happenings, firings, egress batches and transaction lifecycle
// — by one rule: one record per individually posted happening however
// many triggers it touches, one StageBatch per PostBatch run, cohort
// tick or class of a lifecycle run (Tx.flush; class, kind, count and
// the transaction's id).
//
// The trace is a second recorder, installed by EnableTracing and held
// behind one atomic pointer so it can be toggled at runtime (odesh's
// .trace on|off) without locking the posting hot path. It gets every
// record the flight recorder gets, and the per-trigger detail it leaves
// out: each happening of a metered run, each mask evaluation and
// automaton step (step loads the pointer inline, so tracing off costs
// one atomic load and a branch there), each time-event delivery, each
// commit-fixpoint round, and each activation, deactivation and rollback
// — what a reader needs to rebuild every trigger instance's history
// (internal/oracle). Per-trigger transition history lives in the
// provenance journals (explain.go).

// Flight exposes the engine's flight recorder.
func (e *Engine) Flight() *obs.Flight { return e.flight }

// Metrics exposes the per-trigger / per-class metrics registry.
// Metrics are always on: updates are cached-pointer atomic adds, the
// same cost class as the global Stats counters.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Partition returns the engine's partition id (0 for unpartitioned
// engines; see Options.Partition).
func (e *Engine) Partition() int { return e.partition }

// FlightEvents dumps the last recorder entries in chronological order
// (last <= 0 means the full retained window), stamped with the
// engine's partition id — each partition owns its own recorder, so the
// stamp happens here at dump time, never on the record path.
func (e *Engine) FlightEvents(last int) []obs.FlightEvent {
	return e.dump(e.flight, last)
}

// tracer is an installed trace: its recorder, and the first OID the
// store allocated after it was installed. An older object's early
// happenings are not on it, so History refuses that object.
type tracer struct {
	*obs.Flight
	from atomic.Uint64
}

// EnableTracing installs a fresh trace recorder retaining the last
// capacity events (rounded up to a power of two; <= 0 picks
// obs.DefaultFlightCapacity) and returns it. Any previous trace is
// discarded.
func (e *Engine) EnableTracing(capacity int) *obs.Flight {
	tr := &tracer{Flight: obs.NewFlight(capacity, e.names)}
	// The store's next OID is noted after the install, so an object
	// allocated meanwhile counts as older, never as fully traced.
	tr.from.Store(math.MaxUint64)
	e.trace.Store(tr)
	tr.from.Store(uint64(e.st.NextOID()))
	return tr.Flight
}

// DisableTracing turns tracing off.
func (e *Engine) DisableTracing() { e.trace.Store(nil) }

// TracingEnabled reports whether a trace recorder is installed.
func (e *Engine) TracingEnabled() bool { return e.trace.Load() != nil }

// TraceEvents dumps the last trace entries the way FlightEvents dumps
// the flight recorder's (nil when tracing is disabled).
func (e *Engine) TraceEvents(last int) []obs.FlightEvent {
	if tr := e.trace.Load(); tr != nil {
		return e.dump(tr.Flight, last)
	}
	return nil
}

func (e *Engine) dump(f *obs.Flight, last int) []obs.FlightEvent {
	evs := f.Events(last)
	if e.partition != 0 {
		for i := range evs {
			evs[i].Part = e.partition
		}
	}
	return evs
}

// record writes one event to the flight recorder and, while tracing is
// on, to the trace.
func (e *Engine) record(stage obs.Stage, atNs int64, txid, oid uint64,
	classID, trigID, kindID uint16, from, to int, ok bool, durNs int64) {
	e.flight.Record(stage, atNs, txid, oid, classID, trigID, kindID, from, to, ok, durNs)
	if f := e.trace.Load(); f != nil {
		f.Record(stage, atNs, txid, oid, classID, trigID, kindID, from, to, ok, durNs)
	}
}

// recordTrace writes one event, stamped now, to the trace alone, if
// tracing is on.
func (e *Engine) recordTrace(stage obs.Stage, txid uint64, oid store.OID,
	classID, trigID, kindID uint16, from, to int, ok bool) {
	if f := e.trace.Load(); f != nil {
		f.Record(stage, e.clk.Now().UnixNano(), txid, uint64(oid), classID, trigID, kindID, from, to, ok, 0)
	}
}

// flightBatch records one run of happenings (Tx.flush): count happenings of
// one kind, summarized as a single StageBatch event (count rides in the
// from slot).
func (e *Engine) flightBatch(atNs int64, txid uint64, classID, kindID uint16, count uint64) {
	e.record(obs.StageBatch, atNs, txid, 0, classID, 0, kindID, int(count), 0, true, 0)
}

// flightFire records one trigger firing with its action latency.
func (e *Engine) flightFire(txid uint64, oid store.OID, classID, trigID uint16, ok bool, durNs int64) {
	e.record(obs.StageFire, e.clk.Now().UnixNano(), txid, uint64(oid), classID, trigID, 0, 0, 0, ok, durNs)
}

// flightEgress records one batch of firing records becoming visible on
// the durable egress feed: from/to carry the batch's first and last
// sequence numbers, the dur word its size.
func (e *Engine) flightEgress(first, last uint64, n int) {
	e.record(obs.StageEgress, e.clk.Now().UnixNano(), 0, 0,
		0, 0, 0, int(first), int(last), true, int64(n))
}

// flightTx records a transaction lifecycle stage; the kind slot
// carries the interned "user" / "system" marker.
func (e *Engine) flightTx(stage obs.Stage, txid uint64, system bool) {
	kind := e.txUserID
	if system {
		kind = e.txSysID
	}
	e.record(stage, e.clk.Now().UnixNano(), txid, 0, 0, 0, kind, 0, 0, true, 0)
}
