package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ode/internal/fault"
	"ode/internal/schema"
)

// Config parameterizes script generation. The zero value is not
// useful; use Defaults() and override.
type Config struct {
	Seed int64
	// Steps is the number of workload steps after the initial
	// create/activate transaction.
	Steps int
	// Objects is the number of objects created per class up front.
	Objects int
	// Persistent runs against a WAL-backed store; required for WAL
	// fault points and crash/recovery cycles.
	Persistent bool
	// Faults enables fault-injection steps.
	Faults bool
	// RandTriggers is the number of generated triggers per class.
	RandTriggers int
	// Depth bounds generated event-spec nesting.
	Depth int
	// Egress runs the durable-egress consumer and its exactly-once
	// oracle alongside the script; with Faults it also injects at the
	// egress fault points and crashes/resumes the deliverer.
	Egress bool
}

// Defaults returns a modest configuration suitable for test budgets.
func Defaults(seed int64) Config {
	return Config{Seed: seed, Steps: 30, Objects: 2, RandTriggers: 2, Depth: 2}
}

// simMethods lists, per class, the method atoms randomEventSpec may
// use (must stay in sync with classDefs).
var simMethods = [][]simMethod{
	{{Name: "dep", IntParam: "n"}, {Name: "wdr", IntParam: "n"}, {Name: "png"}},
	{{Name: "bump"}, {Name: "scan"}},
}

// Generate derives a deterministic script from cfg. All randomness is
// consumed here: executing the script involves no random choices, so
// Generate(cfg) + Execute is replayable from the seed alone.
//
// Generated triggers are always non-perpetual: a perpetual trigger
// whose event can label a "before tcomplete" symbol (any expression
// under a top-level negation does) re-fires on every round of the §6
// commit fixpoint and legitimately diverges, which is a property of
// the specification, not a bug the harness should hunt. The fixed
// pool covers perpetual and tcomplete-coupled forms with known-safe
// fa(…) shapes instead.
func Generate(cfg Config) *Script {
	if cfg.Steps <= 0 {
		cfg.Steps = 30
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 2
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &Script{Seed: cfg.Seed, Persistent: cfg.Persistent, Egress: cfg.Egress}

	sc.RandTriggers = make([][]RandTrigger, len(classDefs))
	for ci := range classDefs {
		for i := 0; i < cfg.RandTriggers; i++ {
			sc.RandTriggers[ci] = append(sc.RandTriggers[ci], RandTrigger{
				Name:  fmt.Sprintf("R%d", i),
				Event: randomEventSpec(rng, simMethods[ci], cfg.Depth),
			})
		}
	}

	// Slot bookkeeping: slot i's class is fixed at generation time.
	// Slots 0..len(classDefs)-1 are reserved — never deleted — so fault
	// steps always have a live victim whose commit writes the WAL.
	var slotClass []int
	var init []Op
	for ci := range classDefs {
		for i := 0; i < cfg.Objects; i++ {
			slot := len(slotClass)
			slotClass = append(slotClass, ci)
			init = append(init, Op{Kind: OpNew, Obj: slot, Class: ci})
			init = append(init, activateAll(sc, rng, slot, ci)...)
		}
	}
	sc.Steps = append(sc.Steps, Step{Kind: StepTx, Ops: init})

	for s := 0; s < cfg.Steps; s++ {
		r := rng.Intn(100)
		switch {
		case r < 5:
			// Advance virtual time by 1..30 hours: crosses HR=12
			// boundaries often enough that the Timer trigger both arms
			// and fires.
			sc.Steps = append(sc.Steps, Step{Kind: StepAdvance,
				Advance: time.Duration(1+rng.Intn(30)) * time.Hour})
		case r < 8 && cfg.Persistent:
			sc.Steps = append(sc.Steps, Step{Kind: StepCheckpoint})
		case r < 11 && cfg.Egress:
			// Crash or resume the egress consumer mid-run; crashes stall
			// delivery until a resume (or the end-of-run drain) and force
			// a cursor-based restart with redelivery.
			op := Op{Kind: OpCrashDeliverer}
			if rng.Intn(2) == 0 {
				op = Op{Kind: OpResumeConsumer}
			}
			sc.Steps = append(sc.Steps, Step{Kind: StepTx, Ops: []Op{op}})
		case r < 16 && cfg.Faults:
			sc.Steps = append(sc.Steps, genFaultStep(rng, cfg))
		case r < 24:
			// Deliberate abort after real work: rollback of automaton
			// state, shadows and timers under load.
			sc.Steps = append(sc.Steps, Step{Kind: StepTx, Abort: true,
				Ops: genOps(sc, rng, slotClass, 1+rng.Intn(3), nil)})
		default:
			sc.Steps = append(sc.Steps, Step{Kind: StepTx,
				Ops: genOps(sc, rng, slotClass, 1+rng.Intn(4), &slotClass)})
		}
	}
	return sc
}

// triggerPool returns the activatable triggers of class ci for this
// script: the fixed ones, then the generated ones.
func triggerPool(sc *Script, ci int) []schema.Trigger {
	out := slices.Clone(classDefs[ci].triggers)
	if ci < len(sc.RandTriggers) {
		for _, rt := range sc.RandTriggers[ci] {
			out = append(out, schema.Trigger{Name: rt.Name, Event: rt.Event})
		}
	}
	return out
}

// activateAll emits activations for every trigger of class ci,
// choosing activation parameters where the trigger takes them.
func activateAll(sc *Script, rng *rand.Rand, slot, ci int) []Op {
	var ops []Op
	for _, tr := range triggerPool(sc, ci) {
		op := Op{Kind: OpActivate, Obj: slot, Trigger: tr.Name}
		for range tr.Params {
			op.Params = append(op.Params, int64(25+rng.Intn(400)))
		}
		ops = append(ops, op)
	}
	return ops
}

// genOps emits n transaction operations over the known slots. When
// grow is non-nil the transaction may create objects (appending their
// slots) and delete non-reserved ones.
func genOps(sc *Script, rng *rand.Rand, slotClass []int, n int, grow *[]int) []Op {
	var ops []Op
	slots := slotClass
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		slot := rng.Intn(len(slots))
		ci := slots[slot]
		cd := &classDefs[ci]
		switch {
		case grow != nil && r < 5:
			nci := rng.Intn(len(classDefs))
			ns := len(*grow)
			*grow = append(*grow, nci)
			slots = *grow
			ops = append(ops, Op{Kind: OpNew, Obj: ns, Class: nci})
			ops = append(ops, activateAll(sc, rng, ns, nci)...)
		case grow != nil && r < 8 && slot >= len(classDefs):
			ops = append(ops, Op{Kind: OpDelete, Obj: slot})
		case r < 14:
			pool := triggerPool(sc, ci)
			tr := pool[rng.Intn(len(pool))]
			op := Op{Kind: OpActivate, Obj: slot, Trigger: tr.Name}
			for range tr.Params {
				op.Params = append(op.Params, int64(25+rng.Intn(400)))
			}
			ops = append(ops, op)
		case r < 18:
			pool := triggerPool(sc, ci)
			tr := pool[rng.Intn(len(pool))]
			ops = append(ops, Op{Kind: OpDeactivate, Obj: slot, Trigger: tr.Name})
		case r < 21:
			// (Re)arm the class's timer-bearing triggers: cohort joins on
			// live cohorts, idempotent re-joins, and re-activation of fired
			// one-shots, interleaved with the deactivations above.
			ops = append(ops, Op{Kind: OpArmTimers, Obj: slot})
		case r < 28:
			// Batched method run over the class's known slots — the
			// engine's PostBatch hot path under the same oracle and model
			// checks as singles. Slots that are dead at execution time are
			// skipped by the executor, like OpCall.
			var members []int
			for s, c := range slots {
				if c == ci {
					members = append(members, s)
				}
			}
			n := 2 + rng.Intn(7)
			batch := make([]BatchCall, 0, n)
			for j := 0; j < n; j++ {
				m := cd.methods[rng.Intn(len(cd.methods))]
				e := BatchCall{Obj: members[rng.Intn(len(members))], Method: m.Name}
				if len(m.Params) > 0 {
					e.HasArg = true
					e.Arg = int64(rng.Intn(250))
					if rng.Intn(10) == 0 {
						e.Arg = int64(800 + rng.Intn(400)) // trip AbortBig mid-batch
					}
				}
				batch = append(batch, e)
			}
			ops = append(ops, Op{Kind: OpBatch, Class: ci, Batch: batch})
		default:
			m := cd.methods[rng.Intn(len(cd.methods))]
			op := Op{Kind: OpCall, Obj: slot, Method: m.Name}
			if len(m.Params) > 0 {
				op.HasArg = true
				op.Arg = int64(rng.Intn(250))
				// Occasionally large enough to trip the AbortBig tabort
				// trigger (wdr(n) && n > 900).
				if rng.Intn(10) == 0 {
					op.Arg = int64(800 + rng.Intn(400))
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// genFaultStep picks a fault point and a victim transaction. The
// victim always updates reserved slot 0 (class acct, never deleted)
// so its commit is guaranteed to consult the WAL.
func genFaultStep(rng *rand.Rand, cfg Config) Step {
	victim := []Op{{Kind: OpCall, Obj: 0, Method: "dep", HasArg: true, Arg: int64(1 + rng.Intn(200))}}
	if !cfg.Persistent {
		return Step{Kind: StepFault, Ops: victim,
			Fault: FaultSpec{Point: fault.LockAcquire, Tear: -1, Delay: uint64(rng.Intn(5))}}
	}
	// Egress victims withdraw >50 so the perpetual Masked trigger fires
	// and the commit is guaranteed to carry a feed record (staying
	// below AbortBig's n > 900 threshold).
	fireVictim := []Op{{Kind: OpCall, Obj: 0, Method: "wdr", HasArg: true, Arg: int64(60 + rng.Intn(700))}}
	points := 6
	if cfg.Egress {
		points = 9
	}
	switch rng.Intn(points) {
	case 0:
		// Crash before anything reaches the log — of a commit, or, one
		// time in three, of an abort: the victim then logs only the frame
		// that carries what its object's whole-view triggers keep of it.
		return Step{Kind: StepFault, Ops: victim, Abort: rng.Intn(3) == 0,
			Fault: FaultSpec{Point: fault.WALWrite, Tear: -1}}
	case 1:
		// Torn batch: a short prefix makes it to disk.
		return Step{Kind: StepFault, Ops: victim,
			Fault: FaultSpec{Point: fault.WALWrite, Tear: 1 + rng.Intn(64)}}
	case 2:
		return Step{Kind: StepFault, Ops: victim, Fault: FaultSpec{Point: fault.WALSync, Tear: -1}}
	case 3:
		// Crash after durability but before the commit (or, as above, the
		// abort) is acknowledged.
		return Step{Kind: StepFault, Ops: victim, Abort: rng.Intn(3) == 0,
			Fault: FaultSpec{Point: fault.WALAfterSync, Tear: -1}}
	case 4:
		// Crash mid-batch-WAL-frame: the victim is a PostBatch whose
		// commit (two dirty acct objects when the script created them)
		// logs one frame carrying both records, and the write tears partway
		// through it (or, past its end, completes unacknowledged). Recovery
		// must drop a torn frame whole — the record set is all-or-nothing,
		// never a prefix.
		n := 2 + rng.Intn(4)
		maxSlot := 0
		if cfg.Objects >= 2 {
			maxSlot = 1 // slots 0 and 1 are both class acct and reserved
		}
		batch := make([]BatchCall, 0, n)
		for j := 0; j < n; j++ {
			batch = append(batch, BatchCall{Obj: rng.Intn(maxSlot + 1), Method: "dep",
				HasArg: true, Arg: int64(1 + rng.Intn(200))})
		}
		if maxSlot == 1 {
			batch[0].Obj, batch[1].Obj = 0, 1 // guarantee a multi-record commit
		}
		return Step{Kind: StepFault,
			Ops:   []Op{{Kind: OpBatch, Class: classAcct, Batch: batch}},
			Fault: FaultSpec{Point: fault.WALWrite, Tear: 1 + rng.Intn(256)}}
	case 6:
		// Egress append fails before the WAL sees anything: simulated
		// crash, recovery must land pre with no feed extras.
		return Step{Kind: StepFault, Ops: fireVictim,
			Fault: FaultSpec{Point: fault.EgressAppend, Tear: -1}}
	case 7:
		// Cursor save fails (or tears); delivery proceeds and a later
		// restart redelivers from the last intact entry.
		tear := -1
		if rng.Intn(2) == 0 {
			tear = 1 + rng.Intn(10)
		}
		return Step{Kind: StepFault, Ops: fireVictim,
			Fault: FaultSpec{Point: fault.EgressCursor, Tear: tear}}
	case 8:
		// Endpoint rejects 1+Delay consecutive sends: retries inside the
		// pass, or a bounded-retry stall retried by a later pump.
		return Step{Kind: StepFault, Ops: fireVictim,
			Fault: FaultSpec{Point: fault.EgressDeliver, Tear: -1, Delay: uint64(rng.Intn(6))}}
	default:
		return Step{Kind: StepFault, Ops: victim,
			Fault: FaultSpec{Point: fault.LockAcquire, Tear: -1, Delay: uint64(rng.Intn(5))}}
	}
}
