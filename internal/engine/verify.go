package engine

import (
	"errors"
	"fmt"

	"ode/internal/algebra"
	"ode/internal/store"
)

// ErrOracleDivergence wraps every mismatch VerifyOracle reports.
var ErrOracleDivergence = errors.New("engine: oracle divergence")

// VerifyOracle replays every trigger instance's recorded symbol
// history through the instance's compact automaton and through the §4
// denotational semantics (algebra.FiringPoints), asserting that
//
//   - the automaton accepts at exactly the history points the
//     denotational semantics labels — the trigger-firing sequence of
//     the instance's current activation epoch, and
//   - the replayed automaton ends in exactly the state stored on the
//     object — the state that persistence carried across any crash and
//     recovery.
//
// It requires Options.ShadowOracle (which records the histories) and
// a quiescent engine. TrigState's shadow history is part of the record
// and travels with State everywhere: committed, rolled back — or, for a
// whole-view trigger, kept across the rollback — and logged in the same
// frame. So after a crash and reopen, VerifyOracle checks that recovery
// reconstructed automaton states consistent with the §4 semantics of
// the surviving history, in either view.
func (e *Engine) VerifyOracle() error {
	if !e.shadowOracle {
		return errors.New("engine: VerifyOracle requires Options.ShadowOracle")
	}
	for _, oid := range e.st.OIDs() { // ascending
		rec, err := e.st.Get(oid)
		if err != nil {
			return err
		}
		c, err := e.classOf(rec)
		if err != nil {
			return err
		}
		for _, t := range c.Triggers {
			act := rec.Trig(t.slot)
			if act.IsZero() {
				continue // never activated
			}
			if err := e.verifyInstance(oid, t, act.Shadow(), int(act.State)); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyInstance replays one instance's history.
func (e *Engine) verifyInstance(oid store.OID, t *Trigger, hist []int, state int) error {
	labels := algebra.FiringPoints(t.Res.Expr, hist)
	cur := t.Auto.Start()
	for p, sym := range hist {
		cur = t.Auto.Next(cur, sym)
		if got, want := t.Auto.Accept(cur), labels[p]; got != want {
			return fmt.Errorf("%w: trigger %s at object %d, history point %d/%d (symbol %d): automaton accept=%v, §4 oracle=%v (history %v)",
				ErrOracleDivergence, t.Res.Name, oid, p, len(hist), sym, got, want, hist)
		}
	}
	if cur != state {
		return fmt.Errorf("%w: trigger %s at object %d: replayed automaton state %d, stored state %d (history %v)",
			ErrOracleDivergence, t.Res.Name, oid, cur, state, hist)
	}
	return nil
}
