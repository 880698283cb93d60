package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/store"
)

// Cohort delivery: when a cohort comes due, every member observes the
// same time event at the same instant (§3.1 — 'at'/'every' denote
// shared history points). Delivering member-by-member through postTimer
// pays a system transaction, a lock acquire, atomic metric updates and
// a flight record per object; deliverCohort steps the due members in
// ONE system transaction per (class, tick) with the cohort's meter,
// amortizing those costs exactly as PostBatch does for method calls.
// The tick's happenings share one flight record, the StageBatch flush writes.
//
// Semantics relative to the reference, timerTable.perObject — a cohort of
// one per object, posted through postTimer — pinned by the equivalence
// tests in timer_equiv_test.go and timer_cohort_test.go:
//   - each member still observes one happening of the timer kind at the
//     cohort instant, delivered to every active trigger of the object in
//     dispatch order — identical automaton steps, firings, provenance
//     symbols, and action effects;
//   - members are visited in ascending OID order. The reference orders
//     same-instant deliveries by arming order, which for a fleet armed
//     in creation order is the same thing; programs must not rely on
//     cross-OBJECT delivery order either way (the paper orders events
//     within an object's history, not across objects);
//   - the members share the system transaction, so an action may read
//     co-members' same-tick updates before commit, and every member's
//     step carries that one transaction's id where the reference numbers
//     one per member. System transactions post no transaction lifecycle
//     events, so happening streams are unchanged;
//   - on any member error the shared transaction aborts (rolling back
//     every member) and the whole tick is re-delivered member by member
//     through postTimer, giving each its own transaction and any
//     per-object failure its own recorded error;
//   - a member's fired non-perpetual trigger leaves the cohort when the
//     tick's transaction commits (its deactivation is a timer intent,
//     timers.go), so an aborted tick leaves every membership in place.

// deliverCohort posts one due tick of a cohort to the given members
// (sorted ascending) in one system transaction.
func (e *Engine) deliverCohort(co *cohort, oids []store.OID) {
	c := e.Class(co.ck.class)
	if c == nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q: class %q not registered", co.ck.key, co.ck.class))
		return
	}
	ph, err := c.phaseOf(event.TimerKind(co.ck.key))
	if err != nil {
		e.recordTimerErr(err)
		return
	}
	// TxID stays zero: time events belong to no user transaction.
	h := event.Happening{Kind: ph.kind, At: e.clk.Now()}
	sys := e.beginSystem()
	// Members are peeked, not accessed: step registers a member with the
	// txn layer only when its automaton actually changes state or a
	// trigger fires, and PeekStep releases the lock of one it did not
	// register right after its step. A member whose instances all
	// self-loop on the tick — the steady state of a monitoring-shaped
	// `every` fleet — costs one lookup and a lock for its own step: no
	// lock-table entry at commit, no commit-time comparison, no WAL record
	// and no epoch publication, which is what lets a 100k-object storm
	// sweep at memory speed. A member deleted since it was armed is
	// skipped.
	sys.lazyAccess = true
	var delivered uint64
	tr := e.trace.Load() // nil while tracing is off
	for _, oid := range oids {
		err = sys.tx.PeekStep(oid, func(rec *store.Record) error {
			if tr != nil {
				tr.Record(obs.StageTimer, h.At.UnixNano(), sys.tx.ID(), uint64(oid), c.nameID, 0, ph.kindID, 0, 0, true, 0)
			}
			delivered++
			_, err := sys.step(c, ph, oid, rec, &h, nil, &co.m)
			return err
		})
		if err != nil {
			err = fmt.Errorf("engine: timer %q on object %d: %w", co.ck.key, oid, err)
			break
		}
	}
	if err != nil {
		e.recordTimerErr(sys.doAbort(err))
		// The abort rolled back every member's step; re-deliver the tick
		// one object at a time so unaffected members still observe it.
		co.m.reset()
		for _, oid := range oids {
			e.postTimer(oid, co.ck.key, nil)
		}
		return
	}
	e.stats.timerPosts.Add(delivered)
	sys.flush(c, ph, &co.m, h.At.UnixNano())
	if err := sys.Commit(); err != nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q cohort commit: %w", co.ck.key, err))
	}
}
