// Package obs is the engine's observability layer: the event recorder
// of the §5 detection pipeline, firing provenance and per-trigger /
// per-class metrics.
//
// The paper's implementation model is a pipeline — a happening is
// posted to an object, each active trigger's logical-event masks are
// evaluated, the trigger's automaton takes one transition, and
// accepting automata fire their actions. One recorder type, Flight,
// keeps those stages: the engine's always-on recorder holds
// pipeline-level events (happenings, run summaries, firings,
// transactions, egress), and while tracing is on a second Flight also
// holds each mask evaluation, automaton step, time-event delivery,
// commit-fixpoint round, activation, deactivation and rollback. Both record interned IDs with a handful of
// atomic stores; tracing off costs one atomic load and a branch.
package obs

import (
	"encoding/json"
	"fmt"
)

// Stage identifies which pipeline stage a FlightEvent records.
type Stage uint8

const (
	// StageHappening: a happening was posted to an object — the entry
	// point of the §5 pipeline ("whenever a basic event ... is posted
	// to an object").
	StageHappening Stage = iota + 1
	// StageMask: a trigger's logical-event masks were evaluated for a
	// happening; From holds the requested bit set, To the bits that
	// evaluated true ("we check the active triggers to determine
	// whether or not any logical events have occurred"). Trace only.
	StageMask
	// StageStep: a trigger automaton took one transition; From → To
	// are the old and new states, OK reports acceptance ("we move the
	// automaton to the next state"). Trace only.
	StageStep
	// StageFire: a trigger's action executed; DurNs is the action's
	// wall-clock latency, OK false if it failed ("then we fire the
	// triggers").
	StageFire
	// StageTimer: a time event was delivered to an object by the timer
	// table (§3.1 item 3), recorded inside the delivering system
	// transaction. Trace only: the always-on recorder sees a time event
	// as its StageHappening or as its cohort tick's StageBatch.
	StageTimer
	// StageTxBegin: a transaction began (Kind is "user" or "system").
	StageTxBegin
	// StageTxCommit: a transaction committed.
	StageTxCommit
	// StageTxAbort: a transaction aborted (rollback done).
	StageTxAbort
	// StageTcomplete: one round of the §6 before-tcomplete commit
	// fixpoint ran; From is the round number, OK whether any trigger
	// fired (another round follows while OK). Trace only.
	StageTcomplete
	// StageBatch: a PostBatch run of happenings of one kind, a cohort
	// tick, or one class's share of a transaction lifecycle run (a
	// before-tcomplete round, an outcome phase's after tcommit or after
	// tabort, an abort's before tabort, each posted to the transaction's
	// accessed objects); From holds the happening count. The recorder
	// keeps one such summary per run or tick instead of a flight event
	// per happening: per-event stamping is the dominant cost of an
	// otherwise tight loop. A lifecycle happening that no trigger of its
	// class can be moved by is only counted: inside its run's summary, or
	// with no record where it is posted to one object by itself (after
	// create, before delete, a first access's after tbegin). Firings
	// within it still record individual StageFire events.
	StageBatch
	// StageEgress: a batch of firing records became visible on the
	// durable egress feed; From holds the first sequence number of the
	// batch, To the last, and N the batch's size, which From and To do
	// not give: a batch may span a burned reservation's numbers.
	StageEgress
	// StageActivate: a transaction activated a trigger on an object,
	// which restarts its automaton (§2). Trace only.
	StageActivate
	// StageDeactivate: a transaction deactivated a trigger on an
	// object, explicitly or because it fired and is not perpetual.
	// Trace only.
	StageDeactivate
	// StageRollback: a transaction's work since a savepoint was undone;
	// TxID is the outcome phase's id for the phase's savepoint and the
	// transaction's own for its begin. OK reports whether whole-view
	// trigger state survived the rollback (§6): it does, but for a frame
	// that could not be logged, which falls back to plain before-images.
	// From is 1 when what is undone is a frame that failed to log — what
	// a crash may still have made durable. Trace only.
	StageRollback
)

var stageNames = [...]string{
	StageHappening:  "happening",
	StageMask:       "mask",
	StageStep:       "step",
	StageFire:       "fire",
	StageTimer:      "timer",
	StageTxBegin:    "tx-begin",
	StageTxCommit:   "tx-commit",
	StageTxAbort:    "tx-abort",
	StageTcomplete:  "tcomplete",
	StageBatch:      "batch",
	StageEgress:     "egress",
	StageActivate:   "activate",
	StageDeactivate: "deactivate",
	StageRollback:   "rollback",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalJSON renders the stage as its name, so /debug/trace output is
// self-describing.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a stage name back (clients of /debug/trace).
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", name)
}
