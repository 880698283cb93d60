package engine

import (
	"ode/internal/obs"
	"ode/internal/store"
)

// The always-on flight recorder. Unlike the optional tracer
// (trace.go), these record points run unconditionally: each is a
// handful of atomic stores with interned uint16 name IDs, no
// allocation and no lock, so the masked non-firing posting hot path
// keeps its zero-alloc budget. The recorder captures pipeline-level
// events only — happenings, firings, egress batches and transaction
// lifecycle — by one rule: one record per individually posted happening
// however many triggers it touches, one StageBatch per PostBatch run or
// cohort tick (Tx.flush; class, kind, count and the transaction's id).
// Per-trigger transition detail lives in the provenance rings (explain.go).

// Flight exposes the engine's flight recorder.
func (e *Engine) Flight() *obs.Flight { return e.flight }

// Partition returns the engine's partition id (0 for unpartitioned
// engines; see Options.Partition).
func (e *Engine) Partition() int { return e.partition }

// FlightEvents dumps the last recorder entries in chronological order
// (last <= 0 means the full retained window), stamped with the
// engine's partition id — each partition owns its own recorder, so the
// stamp happens here at dump time, never on the record path.
func (e *Engine) FlightEvents(last int) []obs.FlightEvent {
	evs := e.flight.Events(last)
	if e.partition != 0 {
		for i := range evs {
			evs[i].Part = e.partition
		}
	}
	return evs
}

// flightHappening records the pipeline entry of one happening.
func (e *Engine) flightHappening(atNs int64, txid uint64, oid store.OID, classID, kindID uint16) {
	e.flight.Record(obs.StageHappening, atNs, txid, uint64(oid), classID, 0, kindID, 0, 0, true, 0)
}

// flightBatch records one PostBatch happening run: count happenings of
// one kind, summarized as a single StageBatch event (count rides in the
// from slot).
func (e *Engine) flightBatch(atNs int64, txid uint64, classID, kindID uint16, count uint64) {
	e.flight.Record(obs.StageBatch, atNs, txid, 0, classID, 0, kindID, int(count), 0, true, 0)
}

// flightFire records one trigger firing with its action latency.
func (e *Engine) flightFire(txid uint64, oid store.OID, classID, trigID uint16, ok bool, durNs int64) {
	e.flight.Record(obs.StageFire, e.clk.Now().UnixNano(), txid, uint64(oid), classID, trigID, 0, 0, 0, ok, durNs)
}

// flightEgress records one batch of firing records becoming visible on
// the durable egress feed: from/to carry the batch's first and last
// sequence numbers, the oid slot its size.
func (e *Engine) flightEgress(first, last uint64, n int) {
	e.flight.Record(obs.StageEgress, e.clk.Now().UnixNano(), 0, uint64(n),
		0, 0, 0, int(first), int(last), true, 0)
}

// flightTx records a transaction lifecycle stage; the kind slot
// carries the interned "user" / "system" marker.
func (e *Engine) flightTx(stage obs.Stage, txid uint64, system bool) {
	kind := e.txUserID
	if system {
		kind = e.txSysID
	}
	e.flight.Record(stage, e.clk.Now().UnixNano(), txid, 0, 0, 0, kind, 0, 0, true, 0)
}
