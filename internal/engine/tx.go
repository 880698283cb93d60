package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// Tx is a transaction handle (the paper's trans{...} block). A Tx must
// be used from a single goroutine. After Commit, Abort, or a tabort
// raised by a trigger action, the handle is finished and every
// operation fails with txn.ErrNotActive.
type Tx struct {
	e        *Engine
	tx       *txn.Tx
	aborting bool // rolled back to its begin, or posting before tabort
	finished bool
	depth    int   // nested method calls and trigger actions (enter)
	err      error // what Commit or Abort reports: a dependency's abort, a failed frame

	// Hot-path scratch, reused across postings so a call allocates
	// nothing of its own. fired and evArena follow stack discipline
	// (append from a base, truncate on return), which keeps nested
	// postings correct; penv, mctx and actCtx are reused by address with
	// save/restore by value around each use. evArena starts on evBuf, so
	// calls whose parameters — nested ones included — fit it never grow
	// it on the heap.
	fired   []*Trigger     // firing accumulation arena (post.go)
	evArena []value.Value  // event-parameter rows (bindArgs)
	evBuf   [2]value.Value // evArena's inline backing
	penv    progHost       // compiled-mask host (dispatch.go)
	mctx    MethodCtx      // method context storage (invoke)
	actCtx  ActionCtx      // action context storage (fire)

	// lazyAccess marks a cohort timer delivery transaction: members are
	// peeked, and step registers one with the txn layer (Access) only at
	// its first in-place mutation or firing, so a member whose instances
	// all self-loop takes its lock for its step only (PeekStep). Off (the
	// default), the caller has already accessed the object.
	lazyAccess bool

	// Single-entry record cache, primed only by PostBatch (batchAccess).
	// A non-nil cachedRec certifies the transaction is active and has
	// already accessed cachedOID — so the lock is held, the before-image
	// exists, and after-tbegin was posted — which makes returning it
	// from access equivalent to a repeat Access. Every site that could
	// break the certificate (commit, abort, delete, trigger firing)
	// clears it.
	cachedOID store.OID
	cachedRec *store.Record

	// created and deleted list the objects NewObject made and
	// DeleteObject removed. Their provenance heads — the one thing the
	// engine keeps about an object outside its record — are dropped with
	// the outcome that makes them gone for good: an abort for the created,
	// a successful Commit for the deleted (an abort resurrects those).
	created, deleted []store.OID
}

// Begin starts a transaction.
func (e *Engine) Begin() *Tx {
	e.stats.txBegun.Add(1)
	return e.begin(e.txm.Begin())
}

func (e *Engine) begin(t *txn.Tx) *Tx {
	tx := &Tx{e: e, tx: t}
	tx.evArena = tx.evBuf[:0]
	e.traceTx(obs.StageTxBegin, t.ID(), t.System())
	return tx
}

// beginSystem starts a system transaction: it posts no transaction
// lifecycle events of its own, and time events are delivered in it.
func (e *Engine) beginSystem() *Tx {
	e.stats.systemTx.Add(1)
	return e.begin(e.txm.BeginSystem())
}

// Transact runs fn in a fresh transaction, committing on nil and
// aborting on error. A tabort raised by a trigger inside fn surfaces
// as ErrTabort with the rollback already performed. A panic in fn, or
// anywhere else outside the user-code boundary, aborts the transaction
// and surfaces as a *PanicError of Kind "transaction".
func (e *Engine) Transact(fn func(*Tx) error) (err error) {
	tx := e.Begin()
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Kind: "transaction", Value: v, Stack: debug.Stack()}
			if !tx.finished && tx.tx.State() == txn.Active {
				err = tx.doAbort(err)
			}
		}
	}()
	if err := fn(tx); err != nil {
		if !tx.finished {
			if aerr := tx.Abort(); aerr != nil {
				return errors.Join(err, aerr)
			}
		}
		return err
	}
	if tx.finished {
		// fn committed or aborted explicitly; respect it.
		return nil
	}
	return tx.Commit()
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.tx.ID() }

// Underlying exposes the txn-level handle (commit dependencies, lock
// introspection).
func (tx *Tx) Underlying() *txn.Tx { return tx.tx }

// DependOn makes this transaction commit-dependent on other (§7
// footnote 6).
func (tx *Tx) DependOn(other *Tx) { tx.tx.DependOn(other.tx) }

// access locks the object and posts "after tbegin" on the
// transaction's first access to it (§3.1: posted "only immediately
// before the object is first accessed by the transaction").
func (tx *Tx) access(oid store.OID) (*store.Record, error) {
	if tx.cachedRec != nil && oid == tx.cachedOID {
		return tx.cachedRec, nil
	}
	rec, first, err := tx.tx.Access(oid)
	if err != nil || !first || tx.tx.System() || tx.tx.Created(oid) {
		return rec, err
	}
	if err := tx.postLife(lifeTbegin, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// postLife posts lifecycle kind lifeKinds[k] of this transaction to one
// object by itself: a step with no meter where the class's phase has
// entries, and otherwise a step with a meter of its own, which publishes
// the count on the engine's and the class's counters with no flight
// record.
func (tx *Tx) postLife(k int, rec *store.Record) error {
	c, err := tx.e.classOf(rec)
	if err != nil {
		return err
	}
	h := event.Happening{Kind: lifeKinds[k], TxID: tx.tx.ID(), At: tx.e.clk.Now()}
	ph := c.life[k]
	if len(ph.entries) != 0 {
		_, err = tx.step(c, ph, rec.OID, rec, &h, nil, nil)
		return err
	}
	var m meter
	_, err = tx.step(c, ph, rec.OID, rec, &h, nil, &m)
	tx.e.publish(c, &m.counts)
	return err
}

// NewObject creates an object of the class with the given fields
// merged over the schema defaults, posting "after create".
func (tx *Tx) NewObject(class string, fields map[string]value.Value) (store.OID, error) {
	c := tx.e.Class(class)
	if c == nil {
		return 0, fmt.Errorf("engine: unregistered class %q", class)
	}
	init := c.Schema.DefaultFields()
	for k, v := range fields {
		f := c.Schema.Field(k)
		if f == nil {
			return 0, fmt.Errorf("engine: class %s has no field %q", class, k)
		}
		cv, err := coerce(v, f.Kind)
		if err != nil {
			return 0, fmt.Errorf("engine: field %s: %w", k, err)
		}
		init[k] = cv
	}
	rec, err := tx.tx.Create(class, init)
	if err != nil {
		return 0, err
	}
	tx.created = append(tx.created, rec.OID)
	if err := tx.postLife(lifeCreate, rec); err != nil {
		return 0, tx.propagate(err)
	}
	return rec.OID, nil
}

// DeleteObject posts "before delete" and removes the object.
func (tx *Tx) DeleteObject(oid store.OID) error {
	rec, err := tx.access(oid)
	if err != nil {
		return err
	}
	if err := tx.postLife(lifeDelete, rec); err != nil {
		return tx.propagate(err)
	}
	tx.tx.AddIntent(txn.Intent{OID: oid, Op: txn.Delete})
	tx.cachedRec = nil
	if err := tx.tx.Delete(oid); err != nil {
		return err
	}
	tx.deleted = append(tx.deleted, oid)
	return nil
}

// Call invokes a member function with positional arguments, posting
// the before- and after-method happenings around the execution
// (paper §3.1, item 2).
func (tx *Tx) Call(oid store.OID, method string, args ...value.Value) (value.Value, error) {
	rec, err := tx.access(oid)
	if err != nil {
		return value.Null(), err
	}
	c, err := tx.e.classOf(rec)
	if err != nil {
		return value.Null(), err
	}
	cl := c.calls[method]
	if cl == nil {
		return value.Null(), fmt.Errorf("engine: class %s has no method %q", rec.Class, method)
	}
	return tx.call(c, cl, oid, rec, args, tx.e.clk.Now(), nil, nil)
}

// call runs one resolved method call on an accessed object: the before
// happening, the body, the after happening, all at database time at.
// before and after are the meters of the two steps (nil: each publishes
// its own counts).
func (tx *Tx) call(c *Class, cl *call, oid store.OID, rec *store.Record, args []value.Value,
	at time.Time, before, after *meter) (value.Value, error) {
	// The coerced arguments are one row of the Tx's arena, in declared
	// order: both postings, the method body and any action read that row
	// (stack discipline: nested calls append above us, the deferred
	// truncation releases our region on return).
	base := len(tx.evArena)
	defer func() { tx.evArena = tx.evArena[:base] }()
	row, err := tx.bindArgs(cl.m, args)
	if err != nil {
		return value.Null(), fmt.Errorf("engine: %s.%s %w", rec.Class, cl.m.Name, err)
	}
	h := event.Happening{Kind: cl.before.kind, Params: row, TxID: tx.tx.ID(), At: at}
	if _, err := tx.step(c, cl.before, oid, rec, &h, nil, before); err != nil {
		return value.Null(), tx.propagate(err)
	}
	out, err := tx.invoke(c, cl.impl, oid, cl.m, row)
	if err != nil {
		return value.Null(), tx.propagate(err)
	}
	h.Kind = cl.after.kind
	if _, err := tx.step(c, cl.after, oid, rec, &h, nil, after); err != nil {
		return out, tx.propagate(err)
	}
	return out, nil
}

// bindArgs checks a call's arguments against the method's declaration,
// coerces them to the declared kinds and appends them to the event-
// parameter arena, returning the row. The caller truncates the arena
// back to its base when the call the row serves returns.
func (tx *Tx) bindArgs(m *schema.Method, args []value.Value) ([]value.Value, error) {
	if len(args) != len(m.Params) {
		return nil, fmt.Errorf("takes %d argument(s), got %d", len(m.Params), len(args))
	}
	base := len(tx.evArena)
	for i, a := range args {
		cv, err := coerce(a, m.Params[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", m.Params[i].Name, err)
		}
		tx.evArena = append(tx.evArena, cv)
	}
	return tx.evArena[base:len(tx.evArena):len(tx.evArena)], nil
}

// invoke runs a method body over a bound argument row, behind the
// user-code boundary (enter, leave). The MethodCtx lives on the Tx and is
// reused by address; save/restore by value keeps re-entrant calls (a body
// or an action calling further methods) correct.
func (tx *Tx) invoke(c *Class, impl MethodImpl, self store.OID, m *schema.Method, row []value.Value) (out value.Value, err error) {
	if err = tx.enter(c, "method", m.Name); err != nil {
		return value.Null(), err
	}
	defer func(saved MethodCtx) {
		tx.mctx = saved
		tx.leave(recover(), c, "method", m.Name, &err)
	}(tx.mctx)
	tx.mctx = MethodCtx{Tx: tx, Self: self, m: m, args: row}
	return impl(&tx.mctx)
}

// PanicError is a panic in a method body, a trigger action or a mask
// function, recovered at the boundary user code runs behind, or one in
// Transact's fn; its transaction is aborted.
type PanicError struct {
	Class, Kind, Name string // Kind is "method", "trigger", "function" or "transaction" (no Class, Name)
	Value             any
	Stack             []byte
}

func (e *PanicError) Error() string {
	if e.Kind == "transaction" {
		return fmt.Sprintf("engine: panic in transaction: %v", e.Value)
	}
	return fmt.Sprintf("engine: panic in %s %s.%s: %v", e.Kind, e.Class, e.Name, e.Value)
}

// enter opens a frame of user code, or refuses one past maxCascadeDepth.
func (tx *Tx) enter(c *Class, kind, name string) error {
	if tx.depth >= maxCascadeDepth {
		return fmt.Errorf("%w: %s %s.%s", ErrCascadeDepth, kind, c.Schema.Name, name)
	}
	tx.depth++
	return nil
}

// leave closes enter's frame: a panic (v) becomes *err, and a cascade error names the frame.
func (tx *Tx) leave(v any, c *Class, kind, name string, err *error) {
	tx.depth--
	if v != nil {
		*err = &PanicError{Class: c.Schema.Name, Kind: kind, Name: name, Value: v, Stack: debug.Stack()}
	} else if errors.Is(*err, ErrCascadeDepth) && strings.Count((*err).Error(), "←") < 8 {
		*err = fmt.Errorf("%w ← %s %s.%s", *err, kind, c.Schema.Name, name)
	}
}

// Get reads a field without posting events (paper footnote 2: raw
// accesses are deliberately not events). The access is still
// transactional.
func (tx *Tx) Get(oid store.OID, field string) (value.Value, error) {
	rec, err := tx.access(oid)
	if err != nil {
		return value.Null(), err
	}
	v, ok := rec.Field(field)
	if !ok {
		return value.Null(), fmt.Errorf("engine: class %s has no field %q", rec.Class, field)
	}
	return v, nil
}

// Set writes a field without posting events; the schema kind is
// enforced.
func (tx *Tx) Set(oid store.OID, field string, v value.Value) error {
	rec, err := tx.access(oid)
	if err != nil {
		return err
	}
	c, err := tx.e.classOf(rec)
	if err != nil {
		return err
	}
	f := c.Schema.Field(field)
	if f == nil {
		return fmt.Errorf("engine: class %s has no field %q", rec.Class, field)
	}
	cv, err := coerce(v, f.Kind)
	if err != nil {
		return fmt.Errorf("engine: field %s: %w", field, err)
	}
	rec.SetField(field, cv)
	return nil
}

// Activate arms a trigger on an object with the given activation
// parameters, as O++ does by invoking the trigger name (paper §2).
// Activation resets the instance to the beginning of its history and,
// once the transaction commits, schedules its time events; re-activating
// an active trigger restarts it, an 'after' period included.
func (tx *Tx) Activate(oid store.OID, trigger string, params ...value.Value) error {
	rec, err := tx.access(oid)
	if err != nil {
		return err
	}
	c, err := tx.e.classOf(rec)
	if err != nil {
		return err
	}
	t := c.Trigger(trigger)
	if t == nil {
		return fmt.Errorf("engine: class %s has no trigger %q", rec.Class, trigger)
	}
	if len(params) != len(t.Res.Params) {
		return fmt.Errorf("engine: trigger %s takes %d parameter(s), got %d",
			trigger, len(t.Res.Params), len(params))
	}
	// A fresh Params slice every time: slices already installed are
	// shared with committed images and never written (store.TrigState).
	act := store.TrigState{Active: true, State: int32(t.Auto.Start())}
	act.SetParams(append([]value.Value(nil), params...))
	rec.Slots()[t.slot] = act
	// Activation restarts the automaton, so the previous incarnation's
	// provenance no longer explains the instance.
	tx.e.provReset(oid, t.slot)
	tx.schedule(oid, t, txn.Activate)
	return nil
}

// schedule records the change to t's instance on oid for the timer
// table, which takes it when the transaction commits — if t has time
// events.
func (tx *Tx) schedule(oid store.OID, t *Trigger, op txn.IntentOp) {
	if len(t.Res.Timers) > 0 {
		tx.tx.AddIntent(txn.Intent{OID: oid, Slot: t.slot, Op: op, At: tx.e.clk.Now()})
	}
}

// Deactivate disarms a trigger instance; its timers go at commit.
func (tx *Tx) Deactivate(oid store.OID, trigger string) error {
	rec, err := tx.access(oid)
	if err != nil {
		return err
	}
	c, err := tx.e.classOf(rec)
	if err != nil {
		return err
	}
	t := c.Trigger(trigger)
	if t == nil {
		return fmt.Errorf("engine: class %s has no trigger %q", rec.Class, trigger)
	}
	rec.Slots()[t.slot].Active = false
	tx.schedule(oid, t, txn.Deactivate)
	return nil
}

// Commit runs the §6 before-tcomplete fixpoint, then the outcome phase
// (outcome) and the one commit of both (end). Commit returns nil exactly
// when the transaction's own effects committed.
func (tx *Tx) Commit() error {
	if tx.finished {
		return txn.ErrNotActive
	}
	if !tx.tx.System() {
		fired := true
		for round := 0; fired; round++ {
			if round >= maxTcompleteRounds {
				return tx.doAbort(ErrTcompleteDiverged)
			}
			var err error
			if fired, err = tx.lifeRun(lifeTcomplete, tx.tx.ID()); err != nil {
				return tx.propagate(err)
			}
			tx.e.stats.tcompleteRounds.Add(1)
			tx.e.traceTcomplete(tx.tx.ID(), round, fired)
		}
		tx.outcome(lifeTcommit)
	}
	if !tx.finished {
		tx.end()
	}
	return tx.err
}

// outcome runs the outcome phase of the transaction's commit or abort
// (lifeKinds[k], after tcommit or after tabort): §5's system transaction
// posting it to the accessed objects, under this transaction's locks and
// with an id of its own. A phase that aborts rolls back alone and ends
// the transaction (doAbort); a commit dependency that aborted rolls the
// transaction back to its begin (txn.Tx.BeginOutcome), and it takes the
// abort route.
func (tx *Tx) outcome(k int) {
	own := tx.tx.ID()
	tx.cachedRec = nil
	if err := tx.tx.BeginOutcome(); err != nil {
		tx.err = err
		tx.aborts()
		return
	}
	tx.e.stats.systemTx.Add(1)
	tx.e.traceTx(obs.StageTxBegin, tx.tx.ID(), true)
	if _, err := tx.lifeRun(k, own); err != nil {
		tx.doAbort(err)
	}
}

// lifeShare is one class's meter in a lifecycle run.
type lifeShare struct {
	c *Class
	m meter
}

// lifeRun posts lifecycle kind lifeKinds[k], reporting transaction ofTx,
// to the objects the transaction had accessed when the run began, in
// that order, as one run with a meter per class, as a cohort tick is
// posted. It takes each live record from the transaction's list at its
// turn, since an earlier action may have shortened the list or deleted
// the object (skipped then), and never re-accesses one: the transaction
// holds its lock. A class whose phase for the kind has no entries is only
// counted (step does no more then). The run publishes each class's counts
// once, with one StageBatch flight record, when it returns. It stops at
// the transaction's end and at the first error, but for "before tabort",
// whose errors the aborting transaction swallows; it reports whether any
// trigger fired.
func (tx *Tx) lifeRun(k int, ofTx uint64) (fired bool, err error) {
	h := event.Happening{Kind: lifeKinds[k], TxID: ofTx, At: tx.e.clk.Now()}
	var buf [2]lifeShare // the run's meters, local: a run nested in an action keeps its own
	shares := buf[:0]
	defer func() {
		for i := range shares {
			tx.flush(shares[i].c, shares[i].c.life[k], &shares[i].m, h.At.UnixNano())
		}
	}()
	for i, n := 0, len(tx.tx.Accessed()); i < n && (err == nil || k == lifeBeforeTabort); i++ {
		if tx.tx.State() != txn.Active {
			return fired, txn.ErrNotActive
		}
		rec := tx.tx.Live(i)
		if rec == nil {
			continue
		}
		si := 0
		for si < len(shares) && shares[si].c.Schema.Name != rec.Class {
			si++
		}
		if si == len(shares) {
			var c *Class
			if c, err = tx.e.classOf(rec); err != nil {
				continue
			}
			shares = append(shares, lifeShare{c: c, m: meter{direct: true}})
		}
		var f bool
		f, err = tx.step(shares[si].c, shares[si].c.life[k], rec.OID, rec, &h, nil, &shares[si].m)
		fired = fired || f
	}
	return fired, err
}

// aborts ends a transaction rolled back to its begin: the outcome phase
// posts "after tabort" — unless it is a system transaction or accessed
// nothing — and the one commit logs it with what the rollback kept.
func (tx *Tx) aborts() {
	tx.aborting = true
	if !tx.tx.System() && len(tx.tx.Accessed()) > 0 {
		tx.outcome(lifeTabort)
	}
	if !tx.finished {
		tx.end()
	}
}

// end makes the transaction's one commit and runs what follows it. A
// frame that fails is kept in tx.err; one with an outcome phase leaves the
// transaction rolled back to its begin and open (txn.Tx.Commit), and it
// takes the abort route. What follows either outcome drops the
// provenance of the objects the transaction created or deleted that are
// gone.
func (tx *Tx) end() {
	tx.cachedRec = nil
	id := tx.tx.ID()
	err := tx.tx.Commit()
	if id != tx.tx.ID() { // the outcome phase's, gone with it
		stage := obs.StageTxCommit
		if err != nil {
			stage = obs.StageTxAbort
		}
		tx.e.traceTx(stage, id, true)
	}
	if err != nil {
		tx.err = errors.Join(tx.err, err)
	}
	state := tx.tx.State()
	if state == txn.Active {
		tx.aborts()
		return
	}
	tx.finished = true
	for _, oids := range [2][]store.OID{tx.created, tx.deleted} {
		for _, oid := range oids {
			if !tx.e.st.Exists(oid) {
				tx.e.provDrop(oid)
			}
		}
	}
	stage, count := obs.StageTxCommit, &tx.e.stats.txCommitted
	if state == txn.Aborted {
		stage, count = obs.StageTxAbort, &tx.e.stats.txAborted
	}
	if !tx.tx.System() {
		count.Add(1)
	}
	tx.e.traceTx(stage, tx.tx.ID(), tx.tx.System())
}

// Abort posts "before tabort" to the accessed objects, rolls back, posts
// "after tabort" in the outcome phase and commits what the rollback kept
// with what the phase did, in one frame. An error other than
// txn.ErrNotActive reports that frame's failure; the transaction is
// aborted regardless.
func (tx *Tx) Abort() error {
	if tx.finished {
		return txn.ErrNotActive
	}
	return tx.doAbort(nil)
}

// doAbort aborts the transaction because of cause (nil for a plain
// Abort) and returns cause, joined with the error of a frame that
// failed. In the outcome phase only the phase is rolled back, and its
// cause is reported like a timer delivery's.
func (tx *Tx) doAbort(cause error) error {
	if tx.finished {
		return cause
	}
	tx.depth = 0 // the abort runs afresh, however deep it began
	if tx.tx.InOutcome() {
		id, ev := tx.tx.ID(), "tcommit"
		if tx.aborting {
			ev = "tabort"
		}
		tx.tx.Rollback()
		tx.e.traceTx(obs.StageTxAbort, id, true)
		tx.e.recordTimerErr(errors.Join(fmt.Errorf("engine: after-%s delivery aborted", ev), cause))
		tx.end()
	} else if !tx.tx.System() && !tx.aborting {
		tx.aborting = true
		// "Immediately before a transaction aborts" (§3.1 item 4d):
		// posted within the aborting transaction. Whatever it changes —
		// including trigger actions it fires — is undone by the
		// rollback, except what whole-history triggers saw (§6). Its
		// errors are swallowed: the transaction is aborting regardless.
		_, _ = tx.lifeRun(lifeBeforeTabort, tx.tx.ID())
	}
	if !tx.finished { // unless an action's own abort ended it
		tx.cachedRec = nil // abort-path postings may have re-primed it
		tx.tx.Rollback()
		tx.aborts()
	}
	if tx.err == nil { // callers compare ErrTabort by identity
		return cause
	}
	return errors.Join(cause, tx.err)
}

// propagate converts an action-raised tabort (or any posting error)
// into a completed abort, so callers never observe a half-dead
// transaction.
func (tx *Tx) propagate(err error) error {
	if err == nil {
		return nil
	}
	return tx.doAbort(err)
}

// coerce adapts v to the declared kind, promoting int to float.
func coerce(v value.Value, kind value.Kind) (value.Value, error) {
	if v.Kind == kind {
		return v, nil
	}
	if kind == value.KindFloat && v.Kind == value.KindInt {
		return value.Float(v.AsFloat()), nil
	}
	if v.IsNull() {
		return v, nil
	}
	return value.Null(), fmt.Errorf("engine: cannot use %s as %s", v.Kind, kind)
}
