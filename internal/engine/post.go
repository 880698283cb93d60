package engine

import (
	"fmt"
	"slices"
	"time"

	"ode/internal/event"
	"ode/internal/mask"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// MethodCtx is passed to member-function implementations. The context
// is valid only for the duration of the call: the engine reuses its
// storage, so implementations must not retain the pointer.
type MethodCtx struct {
	Tx   *Tx
	Self store.OID

	m    *schema.Method
	args []value.Value // the call's arguments, coerced, in declared order
}

// Arg returns a bound parameter (null if absent).
func (c *MethodCtx) Arg(name string) value.Value {
	v, _ := paramAt(c.args, c.m.ParamIndex(name))
	return v
}

// Args returns the bound parameters by declared name, in a map of the
// caller's own (nil for a method that declares none).
func (c *MethodCtx) Args() map[string]value.Value { return namedArgs(c.m, c.args) }

// Get reads a field of the receiving object.
func (c *MethodCtx) Get(field string) (value.Value, error) { return c.Tx.Get(c.Self, field) }

// Set writes a field of the receiving object.
func (c *MethodCtx) Set(field string, v value.Value) error { return c.Tx.Set(c.Self, field, v) }

// paramAt reads position ix of a parameter row; ok is false for a
// position the row does not have (ix < 0: no such name).
func paramAt(row []value.Value, ix int) (v value.Value, ok bool) {
	if ix < 0 || ix >= len(row) {
		return value.Null(), false
	}
	return row[ix], true
}

// namedArgs renders a method's argument row as a fresh map keyed by the
// declared names; nil for a nil method or one that declares none.
func namedArgs(m *schema.Method, row []value.Value) map[string]value.Value {
	if m == nil || len(m.Params) == 0 {
		return nil
	}
	named := make(map[string]value.Value, len(m.Params))
	for i, p := range m.Params {
		if i < len(row) {
			named[p.Name] = row[i]
		}
	}
	return named
}

// ActionCtx is passed to trigger actions. Param and Params read the
// trigger's activation parameters by declared name; composite events
// carry no event parameters (§3.3).
//
// EventKind, EventParam and EventParams describe the happening that
// completed the composite event — its last logical event. This goes
// beyond the paper, which lists "the incorporation of arguments into
// composite event specification" as future work (§9); exposing the final
// happening's parameters is the cheap four-fifths of that feature
// (collecting values from *earlier* constituent events would require
// augmenting the automaton state and is deliberately not done).
//
// The context is valid only for the duration of the action call: the
// engine reuses its storage across firings and the happening's
// parameters belong to the poster, so actions must not retain the
// pointer. What they may keep: every value.Value an accessor returned,
// and the maps Params and EventParams return — each call builds a fresh
// one that the engine never sees again, so nothing a method body or a
// later posting does can change it.
type ActionCtx struct {
	Tx        *Tx
	Self      store.OID
	Trigger   string
	EventKind string

	names []string       // the trigger's declared activation parameters
	act   []value.Value  // their values, in declared order
	evm   *schema.Method // the completing happening's method; nil for other kinds
	ev    []value.Value  // its arguments, in declared order
}

// Param returns an activation parameter of the firing trigger (null if
// it declares none so named).
func (c *ActionCtx) Param(name string) value.Value {
	v, _ := paramAt(c.act, slices.Index(c.names, name))
	return v
}

// Params returns the activation parameters by declared name (nil for a
// trigger that declares none).
func (c *ActionCtx) Params() map[string]value.Value {
	if len(c.names) == 0 {
		return nil
	}
	named := make(map[string]value.Value, len(c.names))
	for i, name := range c.names {
		if i < len(c.act) {
			named[name] = c.act[i]
		}
	}
	return named
}

// EventParam returns a parameter of the completing happening (null if
// it has none so named).
func (c *ActionCtx) EventParam(name string) value.Value {
	v, _ := paramAt(c.ev, c.evm.ParamIndex(name))
	return v
}

// EventParams returns the completing happening's parameters by declared
// name (nil for a happening that carries none).
func (c *ActionCtx) EventParams() map[string]value.Value { return namedArgs(c.evm, c.ev) }

// Tabort returns the tabort sentinel: returning it from an action
// aborts the posting transaction (the paper's tabort statement).
func (c *ActionCtx) Tabort() error { return ErrTabort }

// counts are the engine-wide detection counters a run of steps moves.
type counts struct {
	happenings, steps, maskEvals, provSteps uint64
}

// publish adds n to the engine's (and the class's) counters, one atomic
// add per counter that moved.
func (e *Engine) publish(c *Class, n *counts) {
	if n.happenings != 0 {
		e.stats.happenings.Add(n.happenings)
		c.met.HappeningN(n.happenings)
	}
	if n.steps != 0 {
		e.stats.steps.Add(n.steps)
	}
	if n.maskEvals != 0 {
		e.stats.maskEvals.Add(n.maskEvals)
	}
	if n.provSteps != 0 {
		e.stats.provSteps.Add(n.provSteps)
	}
}

// meter accumulates the counts of a run of steps through one phase — a
// PostBatch's entries of one method, a cohort's tick, one class's
// objects in a lifecycle run — in plain
// integers, so the run publishes them once (Tx.flush) instead of paying
// atomic updates and a flight record per happening. Its owner (the
// Batch, the cohort) keeps it across runs; a step given no meter
// publishes its counts itself.
type meter struct {
	counts
	trig []trigCounts // parallel to the phase's entries
	// direct sends the trigger counts straight to the triggers' metrics:
	// a lifecycle run's meter (Tx.lifeRun) lives for one run, and sizing
	// trig for it would allocate per transaction.
	direct bool
}

// trigCounts is one trigger's share of a meter.
type trigCounts struct {
	steps, evals, falses uint64
}

// count records that entry i's trigger t took steps automaton steps and
// evaluated evals masks, falses of them false: into the meter, or — on
// a nil or direct meter — straight into the trigger's metrics.
func (m *meter) count(i int, t *Trigger, steps, evals, falses uint64) {
	if m == nil || m.direct {
		t.met.StepN(steps)
		t.met.MaskEvalN(evals, falses)
		return
	}
	tc := &m.trig[i]
	tc.steps += steps
	tc.evals += evals
	tc.falses += falses
}

// reset zeroes the meter for its next run.
func (m *meter) reset() {
	m.counts = counts{}
	clear(m.trig)
}

// flush publishes what a run through ph accumulated in m — one atomic
// add per engine counter, one per trigger metric stream, and the run's
// happenings as one StageBatch flight summary (per-event stamping would
// dominate a batch loop; see obs.StageBatch) — and resets m.
func (tx *Tx) flush(c *Class, ph *phase, m *meter, atNs int64) {
	if m.happenings == 0 {
		return
	}
	tx.e.flightBatch(atNs, tx.tx.ID(), c.nameID, ph.kindID, m.happenings)
	for i := range m.trig {
		t := ph.entries[i].t
		t.met.StepN(m.trig[i].steps)
		t.met.MaskEvalN(m.trig[i].evals, m.trig[i].falses)
	}
	tx.e.publish(c, &m.counts)
	m.reset()
}

// step posts one happening to one object — the paper's §5 procedure and
// the only place the engine runs it. For each active trigger instance
// the phase dispatches it maps the happening to the instance's alphabet
// symbol (evaluating the §5 disjointness masks), advances the instance's
// single integer of state, collects every trigger whose automaton now
// accepts, and then fires them (deactivating ordinary triggers first —
// "an ordinary trigger is automatically deactivated the moment it
// fires", §2). Actions execute inside this transaction, immediately
// (§5). only, when non-nil, restricts delivery to that trigger ('after'
// one-shot timers); m, when non-nil, takes the counts (see meter).
// Every record of the step — flight, trace, provenance — carries this
// transaction's id: the transaction that made the step, which for
// outcome and time events is a system transaction or an outcome
// phase, not h.TxID.
//
// It reports whether any trigger fired — the commit fixpoint's
// quiescence signal.
func (tx *Tx) step(c *Class, ph *phase, oid store.OID, rec *store.Record,
	h *event.Happening, only *Trigger, m *meter) (bool, error) {
	e, txid, atNs := tx.e, tx.tx.ID(), h.At.UnixNano()
	tr := e.trace.Load() // nil while tracing is off
	var own counts
	n := &own
	if m == nil {
		e.flight.Record(obs.StageHappening, atNs, txid, uint64(oid), c.nameID, 0, ph.kindID, 0, 0, true, 0)
	} else {
		n = &m.counts
		if len(m.trig) != len(ph.entries) && !m.direct {
			m.trig = make([]trigCounts, len(ph.entries))
		}
	}
	n.happenings++
	if tr != nil {
		tr.Record(obs.StageHappening, atNs, txid, uint64(oid), c.nameID, 0, ph.kindID, 0, 0, true, 0)
	}

	if len(ph.entries) != 0 {
		// Size the record's slots to the class layout (fresh objects and
		// recovered records may arrive shorter) before any slot is
		// addressed. We hold the object's transaction lock here.
		rec.Slots()
	}
	// Fired triggers accumulate in the Tx's scratch arena with stack
	// discipline: this call appends from base and truncates back on
	// every return, so nested postings (from fired actions) stack above
	// us without allocating.
	base := len(tx.fired)
	var err error
	for i := range ph.entries {
		// The phase has already folded in kind relevance (irrelevant
		// kinds cannot change the instance's behavior; see
		// compile.InertSymbol) and the committed-view rule that aborted
		// histories are invisible (§6); what a view's state does on
		// rollback is the store's business (Layout.Keep).
		d := &ph.entries[i]
		t := d.t
		if only != nil && t != only {
			continue
		}
		act := &rec.Trigs[t.slot]
		if !act.Active {
			continue
		}
		// The mask valuation bits of the symbol: exactly the masks this
		// trigger's expression depends on for the kind. Foreign triggers'
		// bits stay zero — this trigger's automaton provably does not
		// distinguish them.
		var bits uint32
		if d.used != 0 {
			var evals, falses uint32
			if err = t.checkParams(act); err == nil {
				// The Tx's progHost is reused by address (the Host
				// interface conversion must not allocate); save/restore
				// by value keeps nested evaluations — a mask calling a
				// read method — correct.
				saved := tx.penv
				tx.penv = progHost{tx: tx, self: oid, rec: rec, cls: c}
				bits, evals, falses, err = mask.EvalBits(d.progs, d.used, h.Params, act.Params(), &tx.penv)
				tx.penv = saved
			}
			n.maskEvals += uint64(evals)
			m.count(i, t, 0, uint64(evals), uint64(falses))
			if err != nil {
				err = fmt.Errorf("engine: trigger %s mask: %w", t.Res.Name, err)
				break
			}
			if tr != nil {
				tr.Record(obs.StageMask, atNs, txid, uint64(oid), c.nameID, t.nameID, ph.kindID, int(d.used), int(bits), bits != 0, 0)
			}
		}
		sym := c.Res.Alphabet.Symbol(ph.kindIx, bits)

		// The step itself runs on the compact shared table: a row-index
		// load, a narrow cell load and a bitset probe, through the
		// trigger's class-symbol remap.
		prev := int(act.State)
		next := t.Auto.Next(prev, sym)
		if next != prev {
			// A self-looping instance leaves the record bit-identical,
			// so a lazily accessed one (cohort delivery) is registered
			// with the txn layer only here, at its first in-place
			// mutation — it then needs no undo entry and no comparison
			// at commit. Registering is idempotent.
			if tx.lazyAccess {
				if _, _, err = tx.tx.Access(oid); err != nil {
					break
				}
			}
			tx.tx.Mark(rec, t.slot) // an outcome phase's savepoint, until sealed
			act.State = int32(next)
		}
		n.steps++
		m.count(i, t, 1, 0, 0)
		accepted := t.Auto.Accept(next)
		// Firing provenance: non-accepting self-loops (the masked
		// non-firing common case) append nothing, so only an object
		// that moved has a journal head and this costs one branch. Skipping
		// them preserves the chain walk — the state is unchanged across
		// the gap.
		if (next != prev || accepted) && e.provAppend(oid, t.slot, obs.ProvStep{
			TxID: txid, AtNs: atNs,
			KindID: ph.kindID, Bits: bits, Sym: sym,
			From: prev, To: next, Accepted: accepted,
		}) {
			n.provSteps++
		}
		if tr != nil {
			tr.Record(obs.StageStep, atNs, txid, uint64(oid), c.nameID, t.nameID, ph.kindID, prev, next, accepted, 0)
		}
		if accepted {
			tx.fired = append(tx.fired, t)
		}
	}
	if m == nil {
		e.publish(c, n)
	}

	fired := tx.fired[base:]
	if err == nil && len(fired) != 0 && tx.lazyAccess {
		// The object may be pristine — an accepting self-loop — and the
		// deactivation below mutates it in place: register it first.
		_, _, err = tx.tx.Access(oid)
	}
	if err != nil || len(fired) == 0 {
		tx.fired = tx.fired[:base]
		return false, err
	}
	// "We determine all the trigger events that have occurred, and
	// then we fire the triggers" (§5): deactivations happen before any
	// action runs, so an action re-activating a trigger is preserved.
	// An outcome phase seals its savepoint before anything else changes.
	tx.tx.Seal()
	for _, t := range fired {
		if !t.Res.Perpetual {
			rec.Trigs[t.slot].Active = false
			tx.schedule(oid, t, txn.Deactivate)
			e.recordTrace(obs.StageDeactivate, txid, oid, c.nameID, t.nameID, 0, 0, 0, true)
		}
	}
	err = tx.fire(c, ph, oid, rec, h, fired)
	tx.fired = tx.fired[:base]
	return true, err
}

// fire executes the actions of the collected triggers, recording each
// action's wall-clock latency in the trigger's metrics (and trace,
// when enabled). The first action error stops the run — the engine's
// pre-existing semantics: a failing action aborts the posting.
func (tx *Tx) fire(c *Class, ph *phase, oid store.OID, rec *store.Record, h *event.Happening, fired []*Trigger) error {
	evm := c.Schema.Method(h.Kind.Method) // its declaration names h.Params; nil for other kinds
	for _, t := range fired {
		// The ActionCtx lives on the Tx and is reused across firings;
		// save/restore by value keeps nested firings (an action whose
		// method call fires further triggers) correct. Actions must not
		// retain the pointer past their return (documented on the type).
		saved := tx.actCtx
		tx.actCtx = ActionCtx{
			Tx: tx, Self: oid, Trigger: t.Res.Name, EventKind: ph.name,
			names: t.Res.Params, act: rec.Trigs[t.slot].Params(),
			evm: evm, ev: h.Params,
		}
		tx.e.stats.firings.Add(1)
		start := time.Now()
		err := tx.act(c, t)
		d := time.Since(start)
		tx.actCtx = saved
		t.met.Fire(d, err)
		tx.e.flightFire(tx.tx.ID(), oid, c.nameID, t.nameID, err == nil, d.Nanoseconds())
		if err != nil {
			return err
		}
		// Capture the firing for the durable egress feed. Only
		// successful actions are captured — a failed action aborts the
		// posting transaction, and the feed carries committed firings
		// only. Seq is stamped by the store at commit; TxID is the
		// stepping transaction's (an outcome phase has its own).
		tx.tx.AddFiring(store.FiringRecord{
			TxID:    tx.tx.ID(),
			OID:     oid,
			Part:    tx.e.partition,
			Class:   c.Schema.Name,
			Trigger: t.Res.Name,
			Kind:    ph.name,
			AtNs:    h.At.UnixNano(),
		})
	}
	return nil
}

// act runs t's action behind the user-code boundary (Tx.enter, leave).
func (tx *Tx) act(c *Class, t *Trigger) (err error) {
	if err = tx.enter(c, "trigger", t.Res.Name); err != nil {
		return err
	}
	defer func() { tx.leave(recover(), c, "trigger", t.Res.Name, &err) }()
	return t.Action(&tx.actCtx)
}

// checkParams guards the compiled programs' indexed parameter loads: an
// activation persisted under a declaration with a different parameter
// count (the class changed between restarts) must be re-activated, not
// indexed.
func (t *Trigger) checkParams(act *store.TrigState) error {
	if n := len(act.Params()); n != len(t.Res.Params) {
		return fmt.Errorf("activation carries %d parameter(s), the declaration %d: re-activate the trigger",
			n, len(t.Res.Params))
	}
	return nil
}

// maskDotField resolves base.name during mask evaluation, for the
// compiled programs' host (progHost, dispatch.go). Masks "may access the
// state of any object in the database" (§3.2) through object-reference
// field paths and calls; those reads are isolated (locked) but post no
// events.
func (tx *Tx) maskDotField(base value.Value, name string) (value.Value, error) {
	if base.Kind != value.KindID {
		return value.Null(), fmt.Errorf("engine: field access on %s (need an object reference)", base.Kind)
	}
	rec, err := tx.tx.Peek(store.OID(base.AsID()))
	if err != nil {
		return value.Null(), err
	}
	v, ok := rec.Field(name)
	if !ok {
		return value.Null(), fmt.Errorf("engine: class %s has no field %q", rec.Class, name)
	}
	return v, nil
}

// maskCall invokes a mask function: class-level functions first, then
// the class's read methods, then engine-global functions, behind the
// user-code boundary (Tx.enter, leave), for the compiled programs' host.
func (tx *Tx) maskCall(cls *Class, self store.OID, name string, args []value.Value) (_ value.Value, err error) {
	if err = tx.enter(cls, "function", name); err != nil {
		return value.Null(), err
	}
	defer func() { tx.leave(recover(), cls, "function", name, &err) }()
	if fn, ok := cls.Impl.Funcs[name]; ok {
		return fn(args)
	}
	if meth := cls.Schema.Method(name); meth != nil {
		if meth.Mode != schema.ModeRead {
			return value.Null(), fmt.Errorf("engine: mask calls update method %q; masks must be side-effect-free", name)
		}
		base := len(tx.evArena)
		defer func() { tx.evArena = tx.evArena[:base] }()
		row, err := tx.bindArgs(meth, args)
		if err != nil {
			return value.Null(), fmt.Errorf("engine: %s %w", name, err)
		}
		// Invoked directly: a mask-time member call is a condition
		// evaluation, not an event-generating access (§7 requires
		// side-effect-free conditions).
		return tx.invoke(cls, cls.Impl.Methods[name], self, meth, row)
	}
	if fn, ok := tx.e.reg.Load().funcs[name]; ok {
		return fn(args)
	}
	return value.Null(), fmt.Errorf("engine: unknown mask function %q", name)
}
