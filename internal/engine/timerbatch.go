package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/store"
)

// Cohort delivery: when a cohort comes due, every member observes the
// same time event at the same instant (§3.1 — 'at'/'every' denote
// shared history points). Delivering member-by-member through postTimer
// would pay a system transaction, a lock acquire, and atomic metric
// updates per object; deliverCohort instead materializes the due
// members as a columnar run and streams them through stepBatch in ONE
// system transaction per (class, tick), amortizing those costs exactly
// as PostBatch does for method calls.
//
// Semantics relative to the per-object path (Options.PerObjectTimers),
// pinned by the equivalence test in timer_equiv_test.go:
//   - each member still observes one happening of the timer kind at the
//     cohort instant, delivered to every active trigger of the object in
//     dispatch order — identical automaton steps, firings, provenance
//     symbols, and action effects;
//   - members are visited in ascending OID order. The per-object path
//     orders same-instant deliveries by timer-registration order, which
//     for a fleet armed in creation order is the same thing; programs
//     must not rely on cross-OBJECT delivery order either way (the paper
//     orders events within an object's history, not across objects);
//   - the members share the system transaction, so an action may read
//     co-members' same-tick updates before commit. System transactions
//     post no transaction lifecycle events, so happening streams are
//     unchanged;
//   - on any member error the shared transaction aborts (rolling back
//     every member) and the whole tick is re-delivered through the
//     per-object path, giving each member its own transaction and any
//     per-object failure its own recorded error.

// plan returns the cohort's cached delivery plan for its class,
// rebuilding it when the class was re-registered. Only the clock-
// advancing goroutine touches it. A nil plan means the timer kind is
// outside the class alphabet (unreachable for an armed spec — arming
// resolved the trigger against the same alphabet).
func (co *cohort) plan(c *Class) *batchPhase {
	if co.ph != nil && co.phC == c {
		return co.ph
	}
	kind := event.TimerKind(co.ck.key)
	kix := c.Res.Alphabet.KindIndex(kind)
	if kix < 0 {
		return nil
	}
	ph := &batchPhase{
		kind:    kind,
		kindIx:  kix,
		kindID:  c.kindIDs[kix],
		entries: c.dispatch[kix],
	}
	ph.steps = make([]uint64, len(ph.entries))
	ph.evals = make([]uint64, len(ph.entries))
	ph.falses = make([]uint64, len(ph.entries))
	co.ph, co.phC = ph, c
	return ph
}

// deliverCohort posts one due tick of a cohort to the given members
// (sorted ascending) in one system transaction.
func (e *Engine) deliverCohort(co *cohort, oids []store.OID) {
	c := e.Class(co.ck.class)
	if c == nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q: class %q not registered", co.ck.key, co.ck.class))
		return
	}
	ph := co.plan(c)
	if c.monitor != nil || e.interpretMasks || ph == nil {
		// Combined monitoring and interpreted masks take paths the batch
		// plan does not compile; the per-object path is the definition.
		for _, oid := range oids {
			e.postTimer(oid, co.ck.key, "")
		}
		return
	}

	now := e.clk.Now()
	sys := e.beginSystem()
	// Members are peeked, not accessed: stepBatch registers a member
	// with the txn layer only when its automaton actually changes state
	// or a trigger fires. A member whose instances all self-loop on the
	// tick — the steady state of a monitoring-shaped `every` fleet —
	// costs no lock-table entry, no commit-time comparison, no WAL record
	// and no epoch publication, which is what lets a 100k-object storm
	// sweep at memory speed.
	sys.lazyAccess = true
	var bc batchCounters
	var delivered uint64
	err := func() error {
		for _, oid := range oids {
			if !e.st.Exists(oid) {
				continue
			}
			rec, err := sys.tx.Peek(oid)
			if err != nil {
				return fmt.Errorf("engine: timer %q on object %d: %w", co.ck.key, oid, err)
			}
			e.traceTimer(oid, co.ck.key, "")
			// TxID stays zero: time events belong to no user transaction,
			// and the per-object path stamps none either (provenance
			// equality depends on it).
			h := event.Happening{Kind: ph.kind, At: now}
			if err := sys.stepBatch(c, ph, oid, rec, &h, &bc); err != nil {
				return fmt.Errorf("engine: timer %q on object %d: %w", co.ck.key, oid, err)
			}
			delivered++
		}
		return nil
	}()
	if err != nil {
		sys.doAbort()
		e.recordTimerErr(err)
		// The abort rolled back every member's step; re-deliver the tick
		// one object at a time so unaffected members still observe it.
		ph.count = 0
		for i := range ph.entries {
			ph.steps[i], ph.evals[i], ph.falses[i] = 0, 0, 0
		}
		for _, oid := range oids {
			e.postTimer(oid, co.ck.key, "")
		}
		return
	}
	e.stats.timerPosts.Add(delivered)
	sys.flushTimerPhase(c, ph, &bc, now.UnixNano())
	if err := sys.Commit(); err != nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q cohort commit: %w", co.ck.key, err))
	}
}

// flushTimerPhase is flushBatch for a cohort's single phase: one atomic
// add per engine counter, one per-trigger metric flush, and the
// StageBatch flight summary for the tick.
func (tx *Tx) flushTimerPhase(c *Class, ph *batchPhase, bc *batchCounters, atNs int64) {
	if bc.happenings != 0 {
		tx.e.stats.happenings.Add(bc.happenings)
		c.met.HappeningN(bc.happenings)
	}
	if bc.steps != 0 {
		tx.e.stats.steps.Add(bc.steps)
	}
	if bc.maskEvals != 0 {
		tx.e.stats.maskEvals.Add(bc.maskEvals)
	}
	if bc.provSteps != 0 {
		tx.e.stats.provSteps.Add(bc.provSteps)
	}
	if ph.count != 0 {
		tx.e.flightBatch(atNs, tx.tx.ID(), c.nameID, ph.kindID, ph.count)
		ph.count = 0
	}
	for i := range ph.entries {
		if ph.steps[i] != 0 {
			ph.entries[i].t.met.StepN(ph.steps[i])
			ph.steps[i] = 0
		}
		if ph.evals[i] != 0 || ph.falses[i] != 0 {
			ph.entries[i].t.met.MaskEvalN(ph.evals[i], ph.falses[i])
			ph.evals[i], ph.falses[i] = 0, 0
		}
	}
}
