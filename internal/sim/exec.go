package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/evlang"
	"ode/internal/fault"
	"ode/internal/obs"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// Result summarizes one deterministic run. Fingerprint is a digest of
// everything observable — firing log, final object state, activity
// counters and canonical per-trigger metrics — so two same-seed runs
// can be compared for bit-identical behaviour with a string equality.
type Result struct {
	Seed              int64
	Firings           []string
	Stats             engine.Stats
	Crashes           int
	Recoveries        int
	TornTails         int
	InjectedFaults    uint64
	InjectedTimerErrs int
	Fingerprint       string
	// objects renders the live objects at the end of the run (exec.objects).
	objects []string

	// Egress summary (populated for Script.Egress runs): the final
	// durable feed length, the distinct effects the ledger receiver
	// applied (== EgressFeed when the exactly-once oracle held), and
	// the delivery churn behind them.
	EgressFeed        int
	EgressEffects     int
	EgressDelivered   uint64
	EgressRedelivered uint64
	EgressGaveUp      uint64
	EgressCursorSaves uint64
	EgressCursorErrs  uint64
	DelivererCrashes  int
	DelivererResumes  int
}

// Failure is a detected divergence (oracle mismatch, non-atomic
// recovery, lost commit, model drift). It carries the seed and the
// full script so the error message alone reproduces the run.
type Failure struct {
	Seed   int64
	Step   int
	Script *Script
	Err    error
	// Flight is the engine's flight-recorder dump at the moment of
	// failure — the last pipeline events leading into the divergence.
	// When the failing step simulated a crash it is the pre-crash
	// capture, taken before the incarnation was torn down.
	Flight []obs.FlightEvent
}

func (f *Failure) Error() string {
	return fmt.Sprintf("sim: seed %d failed at step %d: %v (%d flight-recorder events attached)\nreproduce with:\n%s",
		f.Seed, f.Step, f.Err, len(f.Flight), f.Script.String())
}

func (f *Failure) Unwrap() error { return f.Err }

// objState is the model's view of one object slot: the fields the
// engine must hold for it after every committed transaction.
type objState struct {
	class  int
	alive  bool
	oid    store.OID
	fields map[string]int64
}

func (o *objState) clone() *objState {
	c := *o
	c.fields = make(map[string]int64, len(o.fields))
	for k, v := range o.fields {
		c.fields[k] = v
	}
	return &c
}

// txStage holds one transaction's uncommitted model updates; they are
// folded into the model only when the engine reports the commit
// durable (or when crash recovery proves the transaction survived).
type txStage struct {
	x       *exec
	touched map[int]*objState
}

func (s *txStage) view(slot int) *objState {
	if v, ok := s.touched[slot]; ok {
		return v
	}
	return s.x.slot(slot)
}

func (s *txStage) put(slot int, v *objState) { s.touched[slot] = v }

func (s *txStage) commit() {
	for slot, v := range s.touched {
		s.x.setSlot(slot, v)
	}
}

type exec struct {
	sc     *Script
	dir    string
	reg    *fault.Registry
	eng    *engine.Engine
	oracle bool // engine.Options.ShadowOracle, and VerifyOracle after recoveries and at the end

	model   []*objState
	firings []string
	outcome outcomeLog
	// flight, when non-nil, is a flight-recorder capture saved just
	// before a crashed incarnation was closed; failFlight prefers it
	// over the live engine's (post-recovery) recorder.
	flight []obs.FlightEvent

	stats             engine.Stats // summed across engine incarnations
	timerErrSeen      int
	crashes           int
	recoveries        int
	tornTails         int
	injectedTimerErrs int

	// egress harness state (sc.Egress; see egress.go)
	delv        *egress.Deliverer
	delvCursor  *egress.Cursor
	effects     map[string]string // idempotency key -> record fingerprint
	feedSeen    []store.FiringRecord
	egressErr   error  // receiver-side failure (key collision)
	redelivered uint64 // dedupe-absorbed duplicate deliveries
	// deliverer counters folded across incarnations
	delivered   uint64
	gaveUp      uint64
	cursorSaves uint64
	cursorErrs  uint64
	delvCrashes int
	delvResumes int
}

func (x *exec) slot(i int) *objState {
	if i < len(x.model) {
		return x.model[i]
	}
	return nil
}

func (x *exec) setSlot(i int, v *objState) {
	for len(x.model) <= i {
		x.model = append(x.model, nil)
	}
	x.model[i] = v
}

// Execute runs a script to completion, checking the model, the §4
// oracle and recovery atomicity along the way. The returned error, if
// any, is a *Failure embedding the reproduction script.
func Execute(sc *Script, dir string) (*Result, error) { return execute(sc, dir, true) }

// execute is Execute with the shadow oracle on or off. Off, the engine
// dispatches a kind only to the triggers it can move, as it does outside
// the simulation, and nothing consults the oracle.
func execute(sc *Script, dir string, oracle bool) (res *Result, err error) {
	if sc.Persistent && dir == "" {
		return nil, errors.New("sim: persistent script needs a directory")
	}
	x := &exec{sc: sc, dir: dir, reg: fault.New(), oracle: oracle}
	x.reg.FailStop()
	if err := x.open(time.Time{}); err != nil {
		return nil, fmt.Errorf("sim: open: %w", err)
	}
	defer func() { x.eng.Close() }()
	if sc.Egress {
		if err := x.openDeliverer(); err != nil {
			return nil, fmt.Errorf("sim: open deliverer: %w", err)
		}
	}
	defer x.teardownDeliverer()
	// A panic anywhere in the run becomes a Failure carrying the flight
	// recorder: the crash dump that makes the aftermath debuggable.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &Failure{Seed: sc.Seed, Step: -1, Script: sc,
				Err: fmt.Errorf("panic: %v", r), Flight: x.failFlight()}
		}
	}()

	for i, st := range sc.Steps {
		x.flight = nil
		if err := x.runStep(st); err != nil {
			return nil, &Failure{Seed: sc.Seed, Step: i, Script: sc, Err: err, Flight: x.failFlight()}
		}
		if err := x.pumpEgress(); err != nil {
			return nil, &Failure{Seed: sc.Seed, Step: i, Script: sc, Err: err, Flight: x.failFlight()}
		}
	}
	final := len(sc.Steps)
	x.flight = nil
	if err := x.egressFinalErr(); err != nil {
		return nil, &Failure{Seed: sc.Seed, Step: final, Script: sc, Err: err, Flight: x.failFlight()}
	}
	if err := x.stateErr(nil, false); err != nil {
		return nil, &Failure{Seed: sc.Seed, Step: final, Script: sc, Err: err, Flight: x.failFlight()}
	}
	if err := x.verifyOracle(); err != nil {
		return nil, &Failure{Seed: sc.Seed, Step: final, Script: sc, Err: err, Flight: x.failFlight()}
	}
	if err := timerScheduleErr(x.eng); err != nil {
		return nil, &Failure{Seed: sc.Seed, Step: final, Script: sc, Err: err, Flight: x.failFlight()}
	}
	x.teardownDeliverer() // fold the final incarnation's delivery counters
	x.collectStats()
	x.stats.FaultsInjected = x.reg.Injected()

	res = &Result{
		Seed:              sc.Seed,
		Firings:           x.firings,
		Stats:             x.stats,
		Crashes:           x.crashes,
		Recoveries:        x.recoveries,
		TornTails:         x.tornTails,
		InjectedFaults:    x.reg.Injected(),
		InjectedTimerErrs: x.injectedTimerErrs,
		EgressFeed:        len(x.feedSeen),
		EgressEffects:     len(x.effects),
		EgressDelivered:   x.delivered,
		EgressRedelivered: x.redelivered,
		EgressGaveUp:      x.gaveUp,
		EgressCursorSaves: x.cursorSaves,
		EgressCursorErrs:  x.cursorErrs,
		DelivererCrashes:  x.delvCrashes,
		DelivererResumes:  x.delvResumes,
	}
	res.Fingerprint, res.objects = x.fingerprint(), x.objects()
	return res, nil
}

// objects renders every live object — its class, its fields and
// whether each trigger slot is active — in OID order. Automaton state
// numbers are left out: a step skipped for a kind that cannot change a
// trigger's behaviour (compile.InertSymbol) may leave an equivalent
// state of another number.
func (x *exec) objects() []string {
	st := x.eng.Store()
	var out []string
	for _, oid := range st.OIDs() {
		rec, err := st.Get(oid)
		if err != nil {
			continue
		}
		s := fmt.Sprintf("%d %s %v", oid, rec.Class, rec.Fields)
		for _, ts := range rec.Trigs {
			s += fmt.Sprintf(" %v", ts.Active)
		}
		out = append(out, s)
	}
	return out
}

// open builds an engine incarnation over the script's classes. start
// carries the virtual clock across simulated crashes.
func (x *exec) open(start time.Time) error {
	opts := engine.Options{Start: start, ShadowOracle: x.oracle, Faults: x.reg}
	if x.sc.Persistent {
		opts.Dir = x.dir
	}
	eng, err := engine.New(opts)
	if err != nil {
		return err
	}
	for ci := range classDefs {
		cls, impl := buildClass(ci, x.sc, x.fire)
		if _, err := eng.RegisterClass(cls, impl, nil); err != nil {
			eng.Close()
			return err
		}
	}
	x.eng = eng
	x.timerErrSeen = 0
	return nil
}

// verifyOracle is engine.VerifyOracle, which needs the shadow oracle.
func (x *exec) verifyOracle() error {
	if !x.oracle {
		return nil
	}
	return x.eng.VerifyOracle()
}

func (x *exec) fire(class, trigger string, ctx *engine.ActionCtx) {
	x.firings = append(x.firings,
		fmt.Sprintf("%s.%s oid=%d on %s", class, trigger, ctx.Self, ctx.EventKind))
	x.outcome.fired(trigger, ctx.Self)
}

func (x *exec) runStep(st Step) error {
	switch st.Kind {
	case StepAdvance:
		x.eng.Clock().Advance(st.Advance)
		return x.checkTimerErrs()
	case StepCheckpoint:
		if !x.sc.Persistent {
			return nil
		}
		if err := x.eng.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		return nil
	case StepFault:
		return x.runFault(st)
	default:
		return x.runTx(st.Ops, st.Abort)
	}
}

func (x *exec) runFault(st Step) error {
	switch st.Fault.Point {
	case fault.LockAcquire:
		x.reg.ArmAt(fault.LockAcquire, x.reg.Consults(fault.LockAcquire)+1+st.Fault.Delay)
	case fault.WALWrite, fault.WALSync, fault.WALAfterSync:
		if !x.sc.Persistent {
			return fmt.Errorf("WAL fault point %v in a volatile script", st.Fault.Point)
		}
		if st.Fault.Tear >= 0 {
			x.reg.ArmNextTear(st.Fault.Point, st.Fault.Tear)
		} else {
			x.reg.ArmNext(st.Fault.Point)
		}
	case fault.EgressAppend:
		// Fires inside the victim's LogCommit, before anything reaches
		// the WAL; the executor escalates it to a simulated crash whose
		// recovery must land on the pre state with no feed extras.
		if !x.sc.Persistent {
			return fmt.Errorf("egress-append fault in a volatile script")
		}
		x.reg.ArmNext(fault.EgressAppend)
	case fault.EgressCursor:
		// Fires at the deliverer's cursor save during this step's pump;
		// an ArmTear plan leaves a torn prefix on disk for the next
		// OpenCursor to detect and discard.
		if !x.sc.Egress || !x.sc.Persistent {
			return fmt.Errorf("egress-cursor fault needs a persistent egress script")
		}
		if st.Fault.Tear >= 0 {
			x.reg.ArmNextTear(fault.EgressCursor, st.Fault.Tear)
		} else {
			x.reg.ArmNext(fault.EgressCursor)
		}
	case fault.EgressDeliver:
		// Fail the next 1+Delay consecutive send attempts (see
		// FaultSpec.Delay); past MaxAttempts-1 the deliverer gives up
		// and stalls until a later pump.
		if !x.sc.Egress {
			return fmt.Errorf("egress-deliver fault in a non-egress script")
		}
		base := x.reg.Consults(fault.EgressDeliver)
		for i := uint64(0); i <= st.Fault.Delay; i++ {
			x.reg.ArmAt(fault.EgressDeliver, base+1+i)
		}
	default:
		return fmt.Errorf("unknown fault point %v", st.Fault.Point)
	}
	err := x.runTx(st.Ops, st.Abort)
	if err == nil && (st.Fault.Point == fault.EgressCursor || st.Fault.Point == fault.EgressDeliver) {
		// Consume the armed plans deterministically inside this fault
		// step: the delivery pump is where these points are consulted.
		err = x.pumpEgress()
	}
	// A WAL plan must never outlive its fault step: the victim always
	// dirties slot 0 so the plan fires at its commit, but a minimized
	// script may have emptied the victim — firing later (e.g. inside a
	// timer delivery, after which the engine would keep appending past
	// a torn tail) would not model a fail-stop crash. Lock plans may
	// linger by design (FaultSpec.Delay); re-arm surviving ones.
	if x.reg.Armed() > 0 {
		lockPlans := x.reg.ArmedAt(fault.LockAcquire)
		x.reg.Disarm()
		for _, at := range lockPlans {
			x.reg.ArmAt(fault.LockAcquire, at)
		}
	}
	return err
}

// runTx executes one transaction worth of ops. Injected lock faults
// and trigger-raised taborts roll the transaction (and its stage)
// back; injected WAL faults escalate to a simulated crash.
func (x *exec) runTx(ops []Op, abort bool) error {
	stage := &txStage{x: x, touched: map[int]*objState{}}
	x.outcome.take()
	tx := x.eng.Begin()
	for _, op := range ops {
		err := x.applyOp(tx, stage, op)
		if err == nil {
			continue
		}
		if aborts(err) {
			if aerr := tx.Abort(); !errors.Is(aerr, txn.ErrNotActive) {
				err = errors.Join(err, aerr)
			}
			_, ab := x.outcome.take()
			return x.aborted(tx, err, ab)
		}
		return fmt.Errorf("op %s: %w", op, err)
	}
	if abort {
		err := tx.Abort()
		_, ab := x.outcome.take()
		return x.aborted(tx, err, ab)
	}

	// Commit returns nil exactly when the transaction's own effects
	// committed: a fault or tabort in its outcome phase rolls back only
	// the outcome and is reported into the timer errors. The phase's
	// writes join the stage unless it was vetoed, or a fault was injected
	// in a Commit that nonetheless succeeded — one that hit the phase.
	injected := x.reg.Injected()
	err := tx.Commit()
	commit, ab := x.outcome.take()
	if err != nil || x.reg.Injected() == injected {
		n := len(x.model)
		for slot := range stage.touched {
			n = max(n, slot+1)
		}
		applyOutcome(stage.view, stage.put, n, commit, "tc")
	}
	switch fe := walFault(err); {
	case err == nil:
		stage.commit()
		return x.checkTimerErrs()
	case fe != nil:
		// The frame failed — the merged one, or the transaction's own
		// part logged alone after its outcome aborted.
		return x.crashCycle(stage, fe, tx.Underlying().ID())
	case aborts(err):
		// a before-tcomplete trigger raised tabort, or a lock fault hit
		// the fixpoint; clean rollback
		return x.aborted(tx, err, ab)
	default:
		return fmt.Errorf("commit: %w", err)
	}
}

// aborted ends a transaction that rolled back, err being what its
// operations and its abort reported. An abort writes too — one frame with
// what whole-view triggers keep of the transaction and what its
// after-tabort outcome phase did — so an injected WAL fault can land
// there, and is a crash like one on a commit frame: the model's stage is
// the phase's writes (WholeA's ta, unless VetoA vetoed it), and the
// oracle must hold on whichever side recovery lands (state and shadow
// travel together). A lock fault can land in the phase too (in WholeA's
// field access): the engine then rolls the phase back alone, its writes
// with it, and reports it as an after-tabort timer error — this abort's,
// the only after-tabort phase since the errors were last drained.
func (x *exec) aborted(tx *engine.Tx, err error, abort phaseLog) error {
	for _, terr := range x.eng.TimerErrors()[x.timerErrSeen:] {
		if errors.Is(terr, fault.ErrInjected) && strings.HasPrefix(terr.Error(), "engine: after-tabort delivery aborted") {
			abort.vetoed = true
		}
	}
	stage := &txStage{x: x, touched: map[int]*objState{}}
	applyOutcome(stage.view, stage.put, len(x.model), abort, "ta")
	if fe := walFault(err); fe != nil {
		return x.crashCycle(stage, fe, tx.Underlying().ID())
	}
	if err != nil && !aborts(err) {
		return fmt.Errorf("abort: %w", err)
	}
	stage.commit()
	return x.checkTimerErrs()
}

// aborts reports whether err is an abort a script may cause: a tabort, a
// panicking action (Boom), a runaway cascade (Again) or an injected
// fault.
func aborts(err error) bool {
	var pe *engine.PanicError
	return errors.Is(err, engine.ErrTabort) || errors.As(err, &pe) ||
		errors.Is(err, engine.ErrCascadeDepth) || errors.Is(err, fault.ErrInjected)
}

// walFault finds the injected fault in err that is not a lock timeout
// (a transaction a lock fault aborted can meet a WAL fault in its abort;
// errors.As would stop at the first).
func walFault(err error) *fault.Error {
	switch e := err.(type) {
	case nil:
		return nil
	case *fault.Error:
		if e.Point == fault.LockAcquire {
			return nil
		}
		return e
	case interface{ Unwrap() []error }:
		for _, sub := range e.Unwrap() {
			if fe := walFault(sub); fe != nil {
				return fe
			}
		}
		return nil
	}
	return walFault(errors.Unwrap(err))
}

func (x *exec) applyOp(tx *engine.Tx, stage *txStage, op Op) error {
	switch op.Kind {
	// Deliverer lifecycle ops act on harness state, not the engine;
	// they ride inside transaction steps but are not transactional.
	case OpCrashDeliverer:
		x.crashDeliverer()
		return nil
	case OpResumeConsumer:
		return x.resumeConsumer()
	}
	return applyOpTx(tx, stage.view, stage.put, op)
}

// applyOpTx executes one scripted op against tx, resolving and staging
// model state through view/put. Shared by the single-engine executor
// (txStage) and the partitioned executor (mStage in multipart.go).
func applyOpTx(tx *engine.Tx, view func(int) *objState, put func(int, *objState), op Op) error {
	cur := view(op.Obj)
	switch op.Kind {
	case OpNew:
		if cur != nil && cur.alive {
			return nil // slot occupied (can happen in minimized scripts)
		}
		oid, err := tx.NewObject(classDefs[op.Class].name, nil)
		if err != nil {
			return err
		}
		put(op.Obj, &objState{
			class: op.Class, alive: true, oid: oid,
			fields: classDefs[op.Class].newFields(),
		})
		return nil
	case OpDelete:
		if cur == nil || !cur.alive {
			return nil
		}
		if err := tx.DeleteObject(cur.oid); err != nil {
			return err
		}
		ns := cur.clone()
		ns.alive = false
		put(op.Obj, ns)
		return nil
	case OpCall:
		if cur == nil || !cur.alive {
			return nil
		}
		var args []value.Value
		if op.HasArg {
			args = append(args, value.Int(op.Arg))
		}
		if _, err := tx.Call(cur.oid, op.Method, args...); err != nil {
			return err
		}
		ns := cur.clone()
		classDefs[ns.class].apply(ns.fields, op.Method, op.Arg)
		put(op.Obj, ns)
		return nil
	case OpBatch:
		// Build the engine batch from the entries whose slot is live,
		// exactly the entries OpCall semantics would execute; the model
		// applies the same subset after the engine succeeds. A failure
		// (tabort, injected fault) discards the whole stage along with
		// the transaction, so partial engine application cannot drift.
		b := engine.NewBatch(classDefs[op.Class].name, len(op.Batch))
		live := make([]BatchCall, 0, len(op.Batch))
		for _, e := range op.Batch {
			ec := view(e.Obj)
			if ec == nil || !ec.alive || ec.class != op.Class {
				continue
			}
			if e.HasArg {
				b.Call(ec.oid, e.Method, value.Int(e.Arg))
			} else {
				b.Call(ec.oid, e.Method)
			}
			live = append(live, e)
		}
		if b.Len() == 0 {
			return nil
		}
		if err := tx.PostBatch(b); err != nil {
			return err
		}
		for _, e := range live {
			ec := view(e.Obj)
			ns := ec.clone()
			classDefs[ns.class].apply(ns.fields, e.Method, e.Arg)
			put(e.Obj, ns)
		}
		return nil
	case OpArmTimers:
		if cur == nil || !cur.alive {
			return nil
		}
		for _, name := range timerTrigNames[cur.class] {
			if err := tx.Activate(cur.oid, name); err != nil {
				return err
			}
		}
		return nil
	case OpActivate:
		if cur == nil || !cur.alive {
			return nil
		}
		var ps []value.Value
		for _, p := range op.Params {
			ps = append(ps, value.Int(p))
		}
		return tx.Activate(cur.oid, op.Trigger, ps...)
	case OpDeactivate:
		if cur == nil || !cur.alive {
			return nil
		}
		return tx.Deactivate(cur.oid, op.Trigger)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
}

// crashCycle abandons the current engine at an injected WAL fault,
// reopens the directory, and reconciles the pending transaction
// against what recovery produced. fe is the injected fault; the
// engine never acknowledged the victim (Commit returned the fault).
// victimTx is the crashed transaction's id — recovery may surface new
// egress feed records only under it, or under its outcome phase's,
// drawn after it.
func (x *exec) crashCycle(stage *txStage, fe *fault.Error, victimTx uint64) error {
	now := x.eng.Clock().Now()
	x.collectStats()
	// The doomed incarnation's recorder dies with it; save the capture
	// so a failure diagnosed after recovery still shows the pipeline
	// events leading into the crash.
	x.flight = x.eng.FlightEvents(0)
	// Capture the dying engine's published feed and fold the deliverer
	// (it dies with the process; its durable cursor survives).
	x.pollFeed()
	x.teardownDeliverer()
	x.eng.Close()
	x.reg.Disarm()
	x.crashes++
	if err := x.open(now); err != nil {
		return fmt.Errorf("recovery open after %v: %w", fe, err)
	}
	if err := x.eng.RearmTimers(); err != nil {
		return fmt.Errorf("rearm timers after recovery: %w", err)
	}
	if err := timerScheduleErr(x.eng); err != nil {
		return fmt.Errorf("rearm reconciliation after %v: %w", fe, err)
	}
	x.recoveries++
	if rec := x.eng.Store().Recovery(); rec.TornTail {
		x.tornTails++
	}

	postErr := x.stateErr(stage, true)
	preErr := x.stateErr(stage, false)
	post, pre := postErr == nil, preErr == nil
	switch {
	case fe.Point == fault.WALAfterSync && !post:
		return fmt.Errorf("crash after WAL sync lost a durable commit: %v", postErr)
	case fe.Point == fault.WALWrite && fe.Tear < 0 && !pre:
		return fmt.Errorf("crash before WAL write surfaced transaction effects: %v", preErr)
	case fe.Point == fault.EgressAppend && !pre:
		return fmt.Errorf("crash at egress append surfaced transaction effects: %v", preErr)
	case post:
		stage.commit()
	case pre:
		// transaction cleanly rolled away by recovery
	default:
		return fmt.Errorf("non-atomic recovery at %v: not post (%v) and not pre (%v)", fe, postErr, preErr)
	}

	if x.sc.Egress {
		if err := x.feedRecoveryErr(fe, post, victimTx); err != nil {
			return err
		}
		if err := x.openDeliverer(); err != nil {
			return fmt.Errorf("reopen deliverer after %v: %w", fe, err)
		}
		x.delvResumes++
	}

	if err := x.verifyOracle(); err != nil {
		return fmt.Errorf("oracle after recovery from %v: %w", fe, err)
	}
	return x.checkTimerErrs()
}

// stateErr compares the store against the model, with stage applied
// (post=true) or ignored (post=false). nil error means exact match:
// same live objects, same field values, nothing extra.
func (x *exec) stateErr(stage *txStage, post bool) error {
	var touched map[int]*objState
	if stage != nil {
		touched = stage.touched
	}
	return modelStateErr(x.eng.Store(), x.model, touched, post)
}

// modelStateErr is the ledger check shared by the single-engine and
// partitioned executors: the store must hold exactly the model's live
// objects with exactly the model's field values, with the pending
// transaction's updates (touched) applied (post=true) or ignored
// (post=false).
func modelStateErr(st *store.Store, model []*objState, touched map[int]*objState, post bool) error {
	n := len(model)
	for slot := range touched {
		if slot+1 > n {
			n = slot + 1
		}
	}
	slotAt := func(i int) *objState {
		if i < len(model) {
			return model[i]
		}
		return nil
	}
	alive := 0
	for i := 0; i < n; i++ {
		v := slotAt(i)
		if sv, ok := touched[i]; ok {
			if post {
				v = sv
			} else if v == nil && sv.oid != 0 && st.Exists(sv.oid) {
				// Object created by the pending transaction must not
				// survive a pre-state recovery.
				return fmt.Errorf("slot %d: uncommitted object %d survived recovery", i, sv.oid)
			}
		}
		if v == nil || !v.alive {
			// No Exists check for dead slots: after a crash rolls an OID
			// allocation back the store may legally hand the same OID to a
			// later object, so a dead slot's OID can alias a live one.
			// Resurrections are still caught by the Count comparison below.
			continue
		}
		rec, err := st.Get(v.oid)
		if err != nil {
			return fmt.Errorf("slot %d: object %d missing: %w", i, v.oid, err)
		}
		for f, want := range v.fields {
			got, ok := rec.Field(f)
			if !ok {
				return fmt.Errorf("slot %d: object %d lost field %s", i, v.oid, f)
			}
			if got.AsInt() != want {
				return fmt.Errorf("slot %d: object %d field %s = %d, model %d", i, v.oid, f, got.AsInt(), want)
			}
		}
		alive++
	}
	if c := st.Count(); c != alive {
		return fmt.Errorf("store holds %d objects, model %d", c, alive)
	}
	return nil
}

// timerScheduleErr verifies the engine's live timer schedule against
// its store: every active trigger instance whose spec carries a
// non-'after' timer requirement must occupy exactly one schedule
// entry ('after' one-shots are excluded from the schedule by
// contract — their per-(object,trigger) anchors are not derivable
// from durable state alone). Run after RearmTimers this proves
// reconciliation rebuilt the cohorts from the recovered store; run at
// end of script it proves the churn of activation, deactivation,
// deletion and aborts converged to exactly the active instances.
func timerScheduleErr(e *engine.Engine) error {
	var want []string
	for _, oid := range e.Store().OIDs() {
		rec, err := e.Store().Get(oid)
		if err != nil {
			continue
		}
		c := e.Class(rec.Class)
		if c == nil {
			return fmt.Errorf("object %d has unregistered class %q", oid, rec.Class)
		}
		for slot := range rec.Trigs {
			if !rec.Trigs[slot].Active {
				continue
			}
			name := rec.TrigName(slot)
			tr := c.Trigger(name)
			if tr == nil {
				return fmt.Errorf("object %d holds unknown trigger %q", oid, name)
			}
			for _, req := range tr.Res.Timers {
				if req.Mode == evlang.TimeAfter {
					continue
				}
				want = append(want, fmt.Sprintf("%d %s %s", oid, req.Key, name))
			}
		}
	}
	sort.Strings(want)
	if got := e.TimerSchedule(); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("timer schedule diverged from store:\n got:  %v\n want: %v", got, want)
	}
	return nil
}

// checkTimerErrs drains newly recorded timer-delivery errors.
// Injected faults landing in timer or after-tabort system transactions,
// or in a commit's outcome phase, are expected (only that rolls back),
// and so is Veto's tabort of an outcome phase; anything else fails the
// run.
func (x *exec) checkTimerErrs() error {
	errs := x.eng.TimerErrors()
	for _, err := range errs[x.timerErrSeen:] {
		switch {
		case errors.Is(err, fault.ErrInjected):
			x.injectedTimerErrs++
		case !errors.Is(err, engine.ErrTabort):
			return fmt.Errorf("timer delivery: %w", err)
		}
	}
	x.timerErrSeen = len(errs)
	return nil
}

// collectStats folds the current incarnation's activity counters into
// the run total (registration-state and process-global fields are
// deliberately excluded; FaultsInjected is taken from the registry at
// the end of the run since it spans incarnations already).
func (x *exec) collectStats() {
	s := x.eng.Stats()
	x.stats.TxBegun += s.TxBegun
	x.stats.TxCommitted += s.TxCommitted
	x.stats.TxAborted += s.TxAborted
	x.stats.SystemTx += s.SystemTx
	x.stats.Happenings += s.Happenings
	x.stats.Steps += s.Steps
	x.stats.MaskEvals += s.MaskEvals
	x.stats.Firings += s.Firings
	x.stats.TimerPosts += s.TimerPosts
	x.stats.TcompleteRounds += s.TcompleteRounds
	x.stats.ShadowChecks += s.ShadowChecks
	x.stats.FlightEvents += s.FlightEvents
	x.stats.ProvenanceSteps += s.ProvenanceSteps
}

// failFlight is the flight-recorder dump attached to a Failure: the
// pre-crash capture when the failing step crashed an incarnation,
// otherwise the live engine's recent events.
func (x *exec) failFlight() []obs.FlightEvent {
	if x.flight != nil {
		return x.flight
	}
	if x.eng == nil {
		return nil
	}
	return x.eng.FlightEvents(0)
}

// fingerprint digests everything a deterministic run pins down.
func (x *exec) fingerprint() string {
	h := sha256.New()
	for _, f := range x.firings {
		fmt.Fprintln(h, f)
	}
	for i, v := range x.model {
		if v == nil || !v.alive {
			fmt.Fprintf(h, "o%d: dead\n", i)
			continue
		}
		fmt.Fprintf(h, "o%d: oid=%d class=%s", i, v.oid, classDefs[v.class].name)
		for _, fd := range classDefs[v.class].fields {
			fmt.Fprintf(h, " %s=%d", fd.Name, v.fields[fd.Name])
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "%+v\n", x.stats)
	fmt.Fprintf(h, "crashes=%d recoveries=%d torn=%d timererrs=%d\n",
		x.crashes, x.recoveries, x.tornTails, x.injectedTimerErrs)
	if x.sc.Egress {
		fmt.Fprintf(h, "egress: feed=%d effects=%d delivered=%d redelivered=%d gaveup=%d cursorerrs=%d dcrash=%d dresume=%d\n",
			len(x.feedSeen), len(x.effects), x.delivered, x.redelivered,
			x.gaveUp, x.cursorErrs, x.delvCrashes, x.delvResumes)
	}
	fmt.Fprintf(h, "%+v\n", x.eng.Metrics().Snapshot().Canonical())
	return hex.EncodeToString(h.Sum(nil))
}
