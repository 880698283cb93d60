// Package engine is the active-database runtime: it wires the object
// store, the transaction manager, the virtual clock and the compiled
// trigger automata into the execution model of the paper's §5:
//
//	"Whenever a basic event (with any associated parameters) is posted
//	to an object, we check the active triggers to determine whether or
//	not any logical events have occurred. If so, for each active
//	trigger for which a logical event has occurred, we move the
//	automaton to the next state. We determine all the trigger events
//	that have occurred, and then we fire the triggers."
//
// Method calls, object lifecycle and transaction lifecycle post
// happenings to objects; each active trigger instance maps the
// happening to its class-alphabet symbol (evaluating the §5
// disjointness masks), advances one integer of automaton state, and
// fires when the automaton accepts. Trigger actions execute
// immediately, inside the posting transaction. "after tcommit" and
// "after tabort" happenings are posted by §5's system transaction: the
// ending transaction's outcome phase, which shares its locks and its one
// frame, whichever way it ends.
package engine

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/clock"
	"ode/internal/compile"
	"ode/internal/egress"
	"ode/internal/evlang"
	"ode/internal/fa"
	"ode/internal/fault"
	"ode/internal/history"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// Errors surfaced by the engine.
var (
	// ErrTabort is returned through the call chain when a trigger
	// action executes the tabort statement (paper §2); by the time the
	// caller sees it, the transaction has been rolled back.
	ErrTabort = errors.New("engine: transaction aborted by trigger (tabort)")
	// ErrTcompleteDiverged is returned when the before-tcomplete
	// fixpoint (§6) fails to quiesce.
	ErrTcompleteDiverged = errors.New("engine: before tcomplete loop did not quiesce")
	// ErrCascadeDepth aborts a transaction whose method calls and trigger
	// actions nest deeper than maxCascadeDepth (64); it names the chain.
	ErrCascadeDepth = errors.New("engine: cascade too deep")
)

// maxTcompleteRounds bounds the §6 commit fixpoint ("this process goes
// on until no triggers fire in response to a before tcomplete event").
const maxTcompleteRounds, maxCascadeDepth = 64, 64

// MaskFunc is a side-effect-free function callable from masks.
type MaskFunc func(args []value.Value) (value.Value, error)

// MethodImpl implements a member function.
type MethodImpl func(ctx *MethodCtx) (value.Value, error)

// ActionFunc implements a trigger action.
type ActionFunc func(ctx *ActionCtx) error

// ClassImpl binds Go code to a class schema.
type ClassImpl struct {
	// Methods maps member-function names to implementations. Every
	// schema method must be implemented.
	Methods map[string]MethodImpl
	// Actions maps trigger names (or action strings) to actions.
	// Triggers whose declared action is "tabort" or a niladic member
	// call "f()" need no entry — the engine synthesizes those.
	Actions map[string]ActionFunc
	// Funcs are class-level mask functions (e.g. reorder economic
	// quantities); they are consulted before engine-global functions.
	Funcs map[string]MaskFunc
	// Views optionally overrides the history view per trigger name;
	// unset triggers use the schema's declared view (default
	// CommittedView, §6).
	Views map[string]schema.HistoryView
}

// Options configures an Engine.
type Options struct {
	// Dir is the persistence directory; empty means volatile.
	Dir string
	// Start is the initial virtual time (zero means 2000-01-01 UTC).
	Start time.Time
	// RecordHistories, when positive, keeps each object's last N
	// happenings for inspection; negative keeps everything.
	RecordHistories int
	// ShadowOracle cross-checks every automaton transition against the
	// §4 denotational semantics at runtime: each trigger instance also
	// records its symbol history and re-evaluates the event expression
	// on every posting. A divergence fails the posting (and aborts the
	// transaction). Expensive — meant for tests and debugging.
	ShadowOracle bool
	// TraceBuffer, when non-zero, enables pipeline tracing at open
	// with a ring buffer of that many events (< 0 picks the default
	// capacity). Tracing can also be toggled later with
	// Engine.EnableTracing / DisableTracing.
	TraceBuffer int
	// DebugAddr, when set, starts the /debug introspection endpoint
	// (stats, per-trigger metrics, trace, expvar, pprof) on that
	// address at open; "auto" binds a free localhost port. The
	// listener is shut down by Engine.Close.
	DebugAddr string
	// Faults optionally installs a fault-injection registry consulted
	// by the WAL and the lock manager (internal/fault). The simulation
	// harness (internal/sim) arms it; nil — the production default —
	// keeps every consult a single branch on the hot path.
	Faults *fault.Registry
	// FlightBuffer sizes the always-on flight recorder (rounded up to a
	// power of two; 0 picks obs.DefaultFlightCapacity). The recorder
	// cannot be disabled — its record path is a handful of atomic
	// stores, cheap enough to leave on permanently.
	FlightBuffer int
	// ProvenanceBytes bounds the engine's firing-provenance journals,
	// which keep the most recent transitions of all its trigger
	// instances and overwrite the oldest (0 picks
	// obs.DefaultProvenanceBytes, at least one 48-byte cell for each of
	// the 64 shards is kept; < 0 disables provenance capture).
	ProvenanceBytes int
	// OIDBase and OIDStride restrict this engine's OID allocation to an
	// arithmetic progression (see store.Options): partition p of N runs
	// with base p+1, stride N, so partitions allocate disjoint OID sets
	// and ownership is recomputable from the OID alone. Zero values mean
	// base 1, stride 1 — every OID, the unpartitioned default.
	OIDBase   uint64
	OIDStride uint64
	// SingleWriter promises that exactly one goroutine drives all
	// transactions over this engine — a partition's event loop — and
	// switches the transaction manager into lock-free mode (see
	// txn.Manager.SetSingleWriter). The hot path then never touches the
	// lock manager.
	SingleWriter bool
	// Partition is this engine's partition id, stamped onto flight-
	// recorder dumps and debug output. 0 for unpartitioned engines.
	Partition int
	// DisableEgress turns off commit-time capture of trigger firings
	// for the durable egress feed (see internal/egress). The default —
	// egress on — costs nothing on the masked non-firing hot path: the
	// capture happens only when a trigger actually fires.
	DisableEgress bool
}

// Engine is an active object database.
type Engine struct {
	st  *store.Store
	txm *txn.Manager
	clk *clock.Virtual

	mu      sync.RWMutex
	classes map[string]*Class
	funcs   map[string]MaskFunc

	// Automaton memory accounting (under mu): the distinct hash-consed
	// tables this engine's triggers reference, the resident bytes of
	// those tables, and the trigger count.
	autoTables   map[*compile.Table]struct{}
	autoBytes    uint64
	autoTriggers uint64

	shadowOracle bool
	// interpretMasks sends mask evaluation to the AST interpreter, the
	// reference the compiled programs are tested against. Only this
	// package's tests set it, before the first posting.
	interpretMasks bool
	egressOff      bool            // Options.DisableEgress: skip firing capture
	partition      int             // partition id (0 for unpartitioned engines)
	faults         *fault.Registry // nil outside the simulation harness

	// firingSink is the optional live-feed callback (SetFiringSink):
	// invoked with each span of newly durable firing records, in
	// sequence order, from the committing goroutine.
	firingSink atomic.Pointer[func(store.FiringSpan)]
	feedWake   egress.Notifier // NotifyFirings' readers

	timers *timerTable

	// book is written once at open and read per happening; an atomic
	// pointer keeps recordHappening from serializing parallel posters.
	book atomic.Pointer[history.Book]

	// timerErrs is a fixed-size ring (timerErrRingCap): a persistent
	// delivery failure must not grow memory without bound. timerErrAt is
	// the overwrite cursor once full; overwritten errors count into
	// stats.timerErrsDropped.
	timerErrMu sync.Mutex
	timerErrs  []error
	timerErrAt int

	stats statCounters

	// Observability: traceBox is nil when tracing is disabled (the
	// hot-path emit helpers in trace.go check it with one atomic
	// load); metrics, the flight recorder and firing provenance are
	// always on. names interns class/trigger/kind strings to the
	// uint16 IDs the flight recorder stores.
	traceBox atomic.Pointer[tracerBox]
	metrics  *obs.Registry
	flight   *obs.Flight
	names    *obs.Interner
	txUserID uint16 // interned "user" / "system" for tx flight records
	txSysID  uint16
	prov     provTable

	debugMu    sync.Mutex
	debugSrvs  []*http.Server
	debugVar   sync.Once
	expvarName string
}

// Class is a registered class: schema, compiled trigger automata and
// bound implementations.
type Class struct {
	Schema   *schema.Class
	Res      *evlang.ClassResolution
	Impl     ClassImpl
	Triggers []*Trigger
	byName   map[string]*Trigger
	parser   *evlang.Parser    // retained for history queries (defines)
	met      *obs.ClassMetrics // per-class counters, cached at registration
	// nameID is the interned flight-recorder ID of the class name,
	// computed at registration so hot-path records never touch a string.
	nameID uint16
	// phases[kindIx] is the posting plan of that alphabet kind — the
	// triggers a happening of the kind can affect, with their compiled
	// mask programs — calls the same per method and life per lifecycle
	// kind (see dispatch.go).
	phases []phase
	calls  map[string]*call
	life   [len(lifeKinds)]*phase
}

// Trigger is one compiled trigger of a class.
type Trigger struct {
	Res *evlang.TriggerResolution
	// Auto is the stepping automaton: a hash-consed compact transition
	// table shared process-wide between equivalent triggers, bound to
	// this class's alphabet by a symbol remap. The posting hot path
	// steps only this form.
	Auto *compile.Shared
	// DFA is the fat class-alphabet oracle automaton (identical state
	// numbering). It is materialized only under Options.ShadowOracle —
	// retaining it per trigger would forfeit the shared tables' memory
	// win — and is nil otherwise; use Oracle() for an on-demand copy.
	DFA    *fa.DFA
	View   schema.HistoryView
	Action ActionFunc
	met    *obs.TriggerMetrics // per-trigger counters, cached at registration
	nameID uint16              // interned flight-recorder ID of the trigger name
	// slot is the trigger's index into Record.Trigs, resolved by name
	// through the store's per-class layout at registration — not its
	// position in Class.Triggers: persisted state binds by name, so a
	// class whose triggers were reordered since the directory was
	// written keeps every trigger on the slot its state lives in.
	slot int
	// relevant[kindIx] reports whether a happening of that kind can
	// affect this trigger at all: either a disjointness mask must be
	// evaluated, or the kind's symbol can change the automaton's
	// behavior (see compile.InertSymbol). step() skips triggers whose
	// entry is false.
	relevant []bool
}

// RelevantKind reports whether happenings of the kind at kindIx can
// affect this trigger (introspection for tests and tooling).
func (t *Trigger) RelevantKind(kindIx int) bool { return t.relevant[kindIx] }

// Oracle returns the trigger's fat class-alphabet DFA with state
// numbering identical to the compact stepping form: the retained
// shadow copy under Options.ShadowOracle, otherwise a fresh expansion.
// Introspection and tests use it; the hot path never does.
func (t *Trigger) Oracle() *fa.DFA {
	if t.DFA != nil {
		return t.DFA
	}
	return t.Auto.Expand()
}

// Metrics exposes the trigger's live counters.
func (t *Trigger) Metrics() *obs.TriggerMetrics { return t.met }

// Trigger returns the named compiled trigger, or nil.
func (c *Class) Trigger(name string) *Trigger { return c.byName[name] }

// New opens an engine.
func New(opts Options) (*Engine, error) {
	st, err := store.OpenWith(opts.Dir, store.Options{
		Faults:    opts.Faults,
		OIDBase:   opts.OIDBase,
		OIDStride: opts.OIDStride,
	})
	if err != nil {
		return nil, err
	}
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	e := &Engine{
		st:           st,
		txm:          txn.NewManagerWith(st, opts.Faults),
		clk:          clock.NewVirtual(start),
		classes:      map[string]*Class{},
		funcs:        map[string]MaskFunc{},
		autoTables:   map[*compile.Table]struct{}{},
		shadowOracle: opts.ShadowOracle,
		egressOff:    opts.DisableEgress,
		faults:       opts.Faults,
		metrics:      obs.NewRegistry(),
		names:        obs.NewInterner(),
		partition:    opts.Partition,
	}
	if opts.SingleWriter {
		e.txm.SetSingleWriter(true)
	}
	e.flight = obs.NewFlight(opts.FlightBuffer, e.names)
	e.prov.init(opts.ProvenanceBytes)
	e.txUserID = e.names.Intern("user")
	e.txSysID = e.names.Intern("system")
	if !e.egressOff {
		st.SetFiringSink(e.egressPublish)
	}
	e.timers = newTimerTable(e)
	e.txm.OnCommit(e.applyTimers)
	switch {
	case opts.RecordHistories > 0:
		e.book.Store(history.NewBook(opts.RecordHistories))
	case opts.RecordHistories < 0:
		e.book.Store(history.NewBook(0))
	}
	if opts.TraceBuffer != 0 {
		e.EnableTracing(opts.TraceBuffer)
	}
	if opts.DebugAddr != "" {
		if _, err := e.ServeDebug(opts.DebugAddr); err != nil {
			st.Close()
			return nil, err
		}
	}
	return e, nil
}

// Close shuts down any debug endpoints and releases the underlying
// store.
func (e *Engine) Close() error {
	e.debugMu.Lock()
	srvs := e.debugSrvs
	e.debugSrvs = nil
	e.debugMu.Unlock()
	for _, s := range srvs {
		s.Close()
	}
	return e.st.Close()
}

// Clock returns the engine's virtual clock. Advance it outside of
// transactions: due timers post their time events from the advancing
// goroutine.
func (e *Engine) Clock() *clock.Virtual { return e.clk }

// Store exposes the object store (read-mostly; examples and tools use
// it for inspection).
func (e *Engine) Store() *store.Store { return e.st }

// Faults returns the engine's fault-injection registry (nil unless
// one was installed via Options.Faults).
func (e *Engine) Faults() *fault.Registry { return e.faults }

// Checkpoint snapshots the store and truncates the WAL.
func (e *Engine) Checkpoint() error { return e.st.Checkpoint() }

// RegisterFunc installs an engine-global mask function (the paper's
// user() is the canonical example).
func (e *Engine) RegisterFunc(name string, fn MaskFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.funcs[name] = fn
}

// RegisterClass validates, resolves and compiles a class: every
// trigger event becomes a minimized DFA over the class's §5 alphabet.
// The optional parser carries #define abbreviations used by trigger
// events.
func (e *Engine) RegisterClass(cls *schema.Class, impl ClassImpl, ps *evlang.Parser) (*Class, error) {
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	for _, m := range cls.Methods {
		if impl.Methods[m.Name] == nil {
			return nil, fmt.Errorf("engine: class %s: method %s has no implementation", cls.Name, m.Name)
		}
	}
	if ps == nil {
		ps = evlang.ForClass(cls)
	} else {
		// The parser may be shared across classes (a common define
		// set); the method list is always this class's own, so work on
		// a clone — setting Methods on the caller's parser in place
		// races with a concurrent registration sharing it.
		ps = ps.Clone()
		ps.Methods = map[string]bool{}
		for _, m := range cls.Methods {
			ps.Methods[m.Name] = true
		}
	}
	res, err := evlang.ResolveClass(cls, ps)
	if err != nil {
		return nil, err
	}
	c := &Class{Schema: cls, Res: res, Impl: impl, byName: map[string]*Trigger{}, parser: ps,
		met: e.metrics.Class(cls.Name), nameID: e.names.Intern(cls.Name)}
	layout := e.st.Layout(cls.Name)
	for _, tr := range res.Triggers {
		view := schema.CommittedView
		if st := cls.Trigger(tr.Name); st != nil {
			view = st.View
		}
		if v, ok := impl.Views[tr.Name]; ok {
			view = v
		}
		action, err := e.bindAction(cls, impl, tr)
		if err != nil {
			return nil, err
		}
		t := &Trigger{
			Res:    tr,
			Auto:   compile.CompileShared(tr.Expr, res.Alphabet.NumSymbols),
			View:   view,
			Action: action,
			met:    e.metrics.Trigger(cls.Name, tr.Name),
			nameID: e.names.Intern(tr.Name),
			slot:   layout.Intern(tr.Name),
		}
		// The registration-time analyses below want the fat
		// class-alphabet form; expand it once here and drop it (except
		// under the shadow oracle, which keeps it as the §5 shadow).
		oracle := t.Auto.Expand()
		if e.shadowOracle {
			t.DFA = oracle
		}
		// Kind-relevance bitmap: a kind matters if the trigger's
		// expression evaluates a mask on it, or if its (mask-free)
		// symbol is not inert for the automaton. step() skips the
		// trigger for irrelevant kinds.
		t.relevant = make([]bool, len(res.Alphabet.Kinds))
		for kix := range res.Alphabet.Kinds {
			t.relevant[kix] = tr.UsedBits[kix] != 0 ||
				!compile.InertSymbol(oracle, res.Alphabet.Symbol(kix, 0), tr.Perpetual)
		}
		c.Triggers = append(c.Triggers, t)
		c.byName[tr.Name] = t
	}
	if err := e.buildPhases(c); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.classes[cls.Name]; dup {
		return nil, fmt.Errorf("engine: class %s already registered", cls.Name)
	}
	e.classes[cls.Name] = c
	for _, t := range c.Triggers {
		// The one thing a history view decides at run time is what a
		// rollback does with the trigger's slot (§6): a whole-view
		// automaton has seen the aborted events too.
		if t.View == schema.WholeView {
			layout.Keep(t.slot)
		}
		e.autoTriggers++
		if _, seen := e.autoTables[t.Auto.Tab]; !seen {
			e.autoTables[t.Auto.Tab] = struct{}{}
			e.autoBytes += uint64(t.Auto.Tab.Compact.Bytes())
		}
	}
	return c, nil
}

// bindAction resolves a trigger's action: an explicit binding by
// trigger name, a binding by raw action string, the built-in tabort
// statement, or a niladic self member call "f()".
func (e *Engine) bindAction(cls *schema.Class, impl ClassImpl, tr *evlang.TriggerResolution) (ActionFunc, error) {
	if a := impl.Actions[tr.Name]; a != nil {
		return a, nil
	}
	raw := tr.Action
	if raw == "" {
		if st := cls.Trigger(tr.Name); st != nil {
			// Schema-declared triggers carry no action text; they must
			// be bound by name.
			return nil, fmt.Errorf("engine: class %s: trigger %s has no bound action", cls.Name, tr.Name)
		}
	}
	if a := impl.Actions[raw]; a != nil {
		return a, nil
	}
	if raw == "tabort" {
		return func(*ActionCtx) error { return ErrTabort }, nil
	}
	// f() — a niladic member call on the triggering object.
	if n := len(raw); n > 2 && raw[n-2] == '(' && raw[n-1] == ')' {
		method := raw[:n-2]
		if cls.Method(method) != nil {
			return func(ctx *ActionCtx) error {
				_, err := ctx.Tx.Call(ctx.Self, method)
				return err
			}, nil
		}
	}
	return nil, fmt.Errorf("engine: class %s: trigger %s action %q is not bound", cls.Name, tr.Name, raw)
}

// Class returns a registered class, or nil.
func (e *Engine) Class(name string) *Class {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.classes[name]
}

// classOf resolves the class of a record.
func (e *Engine) classOf(rec *store.Record) (*Class, error) {
	c := e.Class(rec.Class)
	if c == nil {
		return nil, fmt.Errorf("engine: object %d has unregistered class %q", rec.OID, rec.Class)
	}
	return c, nil
}

// History returns the recorded happening log of oid, or nil when
// recording is disabled or nothing was recorded.
func (e *Engine) History(oid store.OID) *history.Log {
	book := e.book.Load()
	if book == nil {
		return nil
	}
	return book.Peek(oid)
}

// TriggerState reports a trigger instance's automaton state and
// whether it is active — test and tooling introspection.
func (e *Engine) TriggerState(oid store.OID, trigger string) (state int, active bool, err error) {
	rec, err := e.st.Get(oid)
	if err != nil {
		return 0, false, err
	}
	c, err := e.classOf(rec)
	if err != nil {
		return 0, false, err
	}
	t := c.Trigger(trigger)
	if t == nil {
		return 0, false, fmt.Errorf("engine: class %s has no trigger %q", rec.Class, trigger)
	}
	// The record is read without its lock: Trig, never Slots.
	act := rec.Trig(t.slot)
	if act.IsZero() {
		return t.Auto.Start(), false, nil
	}
	return int(act.State), act.Active, nil
}

// timerErrRingCap bounds the retained timer-delivery errors; older
// errors are dropped (and counted in Stats.TimerErrsDropped) once the
// ring is full.
const timerErrRingCap = 64

// TimerErrors returns the most recent errors raised while delivering
// time events, oldest first (empty in healthy runs). At most
// timerErrRingCap errors are retained; Stats().TimerErrsDropped counts
// the overwritten ones.
func (e *Engine) TimerErrors() []error {
	e.timerErrMu.Lock()
	defer e.timerErrMu.Unlock()
	out := make([]error, 0, len(e.timerErrs))
	out = append(out, e.timerErrs[e.timerErrAt:]...)
	out = append(out, e.timerErrs[:e.timerErrAt]...)
	return out
}

func (e *Engine) recordTimerErr(err error) {
	e.timerErrMu.Lock()
	if len(e.timerErrs) < timerErrRingCap {
		e.timerErrs = append(e.timerErrs, err)
	} else {
		e.timerErrs[e.timerErrAt] = err
		e.timerErrAt = (e.timerErrAt + 1) % timerErrRingCap
		e.stats.timerErrsDropped.Add(1)
	}
	e.timerErrMu.Unlock()
}

// RearmTimers re-creates the volatile timer schedule for every active
// trigger after reopening a persistent database: activations are
// durable but clock state is not. It applies an activate intent, at the
// current instant, for each active timed trigger of each committed
// image. Every object must resolve: an unregistered class fails the
// rearm with an error before anything is armed (rearming a subset
// silently would leave some activations without their timers).
func (e *Engine) RearmTimers() error {
	var ins []txn.Intent
	now := e.clk.Now()
	for _, oid := range e.st.CommittedOIDs() {
		rec, ok := e.st.GetCommitted(oid)
		if !ok {
			continue // deleted since CommittedOIDs
		}
		c, err := e.classOf(rec)
		if err != nil {
			return fmt.Errorf("engine: rearm timers: object %d: %w", oid, err)
		}
		for _, t := range c.Triggers {
			if rec.Trig(t.slot).Active && len(t.Res.Timers) > 0 {
				ins = append(ins, txn.Intent{OID: oid, Slot: t.slot, Op: txn.Activate, At: now})
			}
		}
	}
	e.applyTimers(ins)
	return nil
}
