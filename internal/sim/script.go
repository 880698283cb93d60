package sim

import (
	"fmt"
	"strings"
	"time"

	"ode/internal/fault"
)

// OpKind enumerates the operations a simulated transaction performs.
type OpKind uint8

const (
	OpCall OpKind = iota
	OpActivate
	OpDeactivate
	OpNew
	OpDelete
	// OpBatch posts a columnar run of method calls against objects of
	// one class through Tx.PostBatch — the engine's batch hot path.
	// Entries whose slot is dead are skipped, mirroring OpCall.
	OpBatch
	// OpArmTimers (re)activates every fixed trigger of the slot's class
	// whose event spec carries timer atoms, growing the class's timer
	// cohorts mid-run. Activation is idempotent, so re-arming an
	// already-armed instance keeps its original schedule (§3.1 sharing).
	OpArmTimers
	// OpCrashDeliverer simulates the egress consumer process dying:
	// the deliverer is dropped with no graceful shutdown, keeping only
	// what its durable cursor already holds. Deliveries stall until an
	// OpResumeConsumer (or the end-of-run drain) restarts it.
	OpCrashDeliverer
	// OpResumeConsumer restarts a crashed deliverer from its durable
	// cursor, redelivering anything past the last saved entry (the
	// ledger receiver's idempotency-key dedupe absorbs the overlap).
	// No-op while the deliverer is running.
	OpResumeConsumer
)

// BatchCall is one entry of an OpBatch.
type BatchCall struct {
	Obj    int
	Method string
	Arg    int64
	HasArg bool
}

// Op is one operation inside a simulated transaction. Objects are
// addressed by slot index into the harness's object table, never by
// OID: OIDs are allocated by the store at execution time and may be
// reused after a crash rolls an allocation back, so a script that
// named OIDs would not survive minimization or replay.
type Op struct {
	Kind    OpKind
	Obj     int    // object slot
	Class   int    // OpNew: class index
	Method  string // OpCall
	Arg     int64  // OpCall: integer argument
	HasArg  bool   // OpCall: whether Arg is passed
	Trigger string // OpActivate / OpDeactivate
	Params  []int64
	// Batch holds the entries of an OpBatch; Class names their class
	// (every entry of a batch addresses objects of one class).
	Batch []BatchCall
}

// StepKind enumerates the top-level script steps.
type StepKind uint8

const (
	// StepTx runs Ops in one transaction and commits (or aborts when
	// Abort is set).
	StepTx StepKind = iota
	// StepAdvance moves the virtual clock, delivering due timers.
	StepAdvance
	// StepCheckpoint snapshots the store and truncates the WAL.
	StepCheckpoint
	// StepFault arms a fault and then runs Ops as the victim
	// transaction. For WAL points the executor simulates a crash at the
	// injection and recovers; for LockAcquire the victim (or a later
	// consult, per Delay) simply fails.
	StepFault
)

// FaultSpec describes the fault a StepFault arms.
type FaultSpec struct {
	Point fault.Point
	// Tear, for WALWrite: >=0 writes only that byte prefix of the
	// batch; <0 writes nothing.
	Tear int
	// Delay, for LockAcquire: fire on the (1+Delay)-th consult after
	// arming, letting the fault land in a later transaction, a mask
	// evaluation, or a timer delivery. For EgressDeliver: fail the next
	// 1+Delay consecutive send attempts — Delay >= MaxAttempts-1 makes
	// the deliverer exhaust its retries and stall at the record.
	Delay uint64
}

// Step is one top-level action of a simulation script.
type Step struct {
	Kind    StepKind
	Ops     []Op
	Abort   bool          // StepTx, StepFault: deliberately abort after Ops
	Advance time.Duration // StepAdvance
	Fault   FaultSpec     // StepFault
}

// RandTrigger is a generated trigger rendered into the script so the
// script alone reproduces the schema (the minimizer re-executes
// scripts in fresh engines).
type RandTrigger struct {
	Name  string
	Event string
}

// Script is a fully deterministic simulation input: executing the
// same script twice yields bit-identical firing logs and stats.
type Script struct {
	Seed       int64
	Persistent bool
	// Egress runs a durable-egress consumer alongside the script: a
	// ledger receiver fed by a cursor-backed deliverer, checked for
	// exactly-once effects against the final feed at the end of the
	// run (see egress.go).
	Egress bool
	// RandTriggers holds the generated (always non-perpetual) triggers
	// per class, indexed like classDefs.
	RandTriggers [][]RandTrigger
	Steps        []Step
}

// String renders the script as a human-readable reproduction recipe;
// failures embed it next to the seed.
func (sc *Script) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# sim script seed=%d persistent=%v egress=%v\n", sc.Seed, sc.Persistent, sc.Egress)
	for ci, trs := range sc.RandTriggers {
		for _, tr := range trs {
			fmt.Fprintf(&b, "trigger %s.%s: %s\n", classDefs[ci].name, tr.Name, tr.Event)
		}
	}
	for i, st := range sc.Steps {
		fmt.Fprintf(&b, "%3d: %s\n", i, st.String())
	}
	return b.String()
}

func (st Step) String() string {
	switch st.Kind {
	case StepAdvance:
		return fmt.Sprintf("advance %s", st.Advance)
	case StepCheckpoint:
		return "checkpoint"
	case StepFault:
		s := fmt.Sprintf("fault %v tear=%d delay=%d; %s", st.Fault.Point, st.Fault.Tear, st.Fault.Delay, opsString(st.Ops))
		if st.Abort {
			s += "; abort"
		}
		return s
	default:
		verb := "tx"
		if st.Abort {
			verb = "tx-abort"
		}
		return fmt.Sprintf("%s %s", verb, opsString(st.Ops))
	}
}

func opsString(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, ", ")
}

func (op Op) String() string {
	switch op.Kind {
	case OpCall:
		if op.HasArg {
			return fmt.Sprintf("o%d.%s(%d)", op.Obj, op.Method, op.Arg)
		}
		return fmt.Sprintf("o%d.%s()", op.Obj, op.Method)
	case OpActivate:
		if len(op.Params) > 0 {
			return fmt.Sprintf("o%d.activate(%s, %v)", op.Obj, op.Trigger, op.Params)
		}
		return fmt.Sprintf("o%d.activate(%s)", op.Obj, op.Trigger)
	case OpDeactivate:
		return fmt.Sprintf("o%d.deactivate(%s)", op.Obj, op.Trigger)
	case OpNew:
		return fmt.Sprintf("o%d = new %s", op.Obj, classDefs[op.Class].name)
	case OpDelete:
		return fmt.Sprintf("delete o%d", op.Obj)
	case OpBatch:
		parts := make([]string, len(op.Batch))
		for i, e := range op.Batch {
			if e.HasArg {
				parts[i] = fmt.Sprintf("o%d.%s(%d)", e.Obj, e.Method, e.Arg)
			} else {
				parts[i] = fmt.Sprintf("o%d.%s()", e.Obj, e.Method)
			}
		}
		return fmt.Sprintf("batch %s [%s]", classDefs[op.Class].name, strings.Join(parts, " "))
	case OpArmTimers:
		return fmt.Sprintf("o%d.arm-timers", op.Obj)
	case OpCrashDeliverer:
		return "crash-deliverer"
	case OpResumeConsumer:
		return "resume-consumer"
	default:
		return "?"
	}
}
