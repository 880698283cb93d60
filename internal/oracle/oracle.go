// Package oracle checks a running engine against the paper's semantics
// from outside it. A Checker reads the engine's trace (obs.Flight: every
// happening, mask evaluation, automaton step, activation, rollback and
// transaction stage) and keeps, per trigger instance — an (object,
// trigger) pair and its activation — the instance's event history under
// its own model of §6, then checks the engine's steps against §4:
//
//   - every automaton step's verdict (StageStep's OK) equals
//     algebra.FiringPoints over the model's full history at that point,
//     and every history point the engine did not step is labeled false;
//   - every step starts from the state the model's replay is in (From),
//     which catches a rollback that restores the wrong state
//     independently of the state the engine stores;
//   - after every recovery and at the end of a run, every stored trigger
//     slot is active exactly when the model's instance is, in the state
//     of the replay.
//
// The §6 model is the checker's own: a transaction's symbols are pending
// until its commit record; a rollback — an abort to the transaction's
// begin, or an outcome phase's to its savepoint — drops them from a
// committed-view instance and leaves a whole-view one as it is, if the
// instance was active both before and after (§6: a whole-view trigger has
// seen the aborted events too); committed-view instances never see a
// tabort happening; "after tabort" comes after the rollback; and a crash
// drops whatever no commit record covers.
//
// Symbols. A stepped trigger's symbol is Alphabet.Symbol(kind, bits),
// its bits from the StageMask record before the step (zero without one).
// A trigger the engine did not step on a happening to its object gets
// Symbol(kind, 0): the engine skips a trigger only for a kind that cannot
// move it (compile.InertSymbol), and the §4 labels of the full history
// then say whether that was sound. The replay that gives an instance's
// state feeds the stepped symbols only: a skipped inert symbol may leave a
// state of another number with the same row (see compile.InertSymbol).
// Every happening the engine posts reaches Tx.step, which records it,
// lifecycle happenings a class is only counted for (engine.Tx.lifeRun)
// included. One that left no record would be treated as absent, which is
// sound exactly when InertSymbol is: a symbol that can move no trigger of
// the class changes no verdict whether it is read or not.
//
// The checker never skips: a sequence gap in the trace (a ring that
// lapped between two drains) fails the check.
package oracle

import (
	"errors"
	"fmt"
	"slices"

	"ode/internal/algebra"
	"ode/internal/compile"
	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
)

// Trigger is what the checker knows of one trigger of a class.
type Trigger struct {
	Res  *evlang.TriggerResolution
	View schema.HistoryView
}

// Class is what the checker knows of one registered class.
type Class struct {
	Alphabet *evlang.Alphabet
	Triggers []Trigger
}

// Classes resolves a class name to its declaration, nil if the engine
// has no such class.
type Classes func(name string) *Class

// ErrDivergence wraps every mismatch the checker reports.
var ErrDivergence = errors.New("oracle: divergence")

// Stats counts what a Checker has checked.
type Stats struct {
	Steps uint64 // automaton steps checked against §4 and the replay
	Inert uint64 // history points the engine did not step, checked unlabeled
}

// Checker is the trace checker. It is not safe for concurrent use; drain
// an engine's trace while no transaction is running on it. Concurrent
// transactions may run between drains — their records interleave, and
// the checker reads each transaction's in order — except around a frame
// that fails to log: its rollback is recorded after the transaction
// releases its locks, so a transaction stepping the same object at once
// may be read before it.
type Checker struct {
	trace   *obs.Flight
	seq     uint64 // last trace sequence number read
	resolve Classes
	classes map[string]*class

	insts map[key]*inst
	fams  map[uint64]*family // by the root's and every open outcome phase's id
	grps  map[uint64]*group  // per posting transaction, the happening whose steps are being read
	spare []*group
	only  map[uint64]string // per transaction, the trigger a StageTimer delivers its next happening to alone
	// post is what the first frame that failed to log since the last
	// recovery would have made durable, if it reached the disk after all.
	post  []undo
	stats Stats
}

type key struct {
	oid  uint64
	trig string
}

// inst is one trigger instance of the model.
type inst struct {
	class   string
	active  bool
	hist    []int // every symbol of the history, stepped or not
	state   int   // the replay of the stepped symbols
	checked int   // points of hist whose §4 labels are checked
}

// undo is an instance as it was before a family first changed it since a
// savepoint; ok is false for one that did not exist.
type undo struct {
	k    key
	pre  inst
	ok   bool
	prev int // index of the same instance's earlier entry, -1 for none
}

// family is a transaction and its outcome phases, which commit in one
// frame.
type family struct {
	root       uint64
	phase      uint64 // the running outcome phase's id, 0 for none
	save       int    // its savepoint: the log's length when it began
	log        []undo
	latest     map[key]int // each changed instance's last log entry
	rolledBack bool        // rolled back to its begin: "after tabort" may follow
}

// group is a happening and the steps it has made so far.
type group struct {
	tx      uint64
	oid     uint64
	c       *class
	kix     int
	fam     *family
	only    *trig    // the trigger a time event is delivered to alone, nil for every one
	bits    []uint32 // per trigger of c: its mask bits (StageMask)
	stepped []bool   // per trigger of c: stepped
}

type class struct {
	name  string
	alpha *evlang.Alphabet
	kinds map[string]int // kind name → alphabet index
	list  []*trig
	trigs map[string]*trig
}

type trig struct {
	Trigger
	ix   int // in class.list
	auto *compile.Shared
}

// New returns a checker; Attach gives it a trace to read.
func New() *Checker {
	return &Checker{insts: map[key]*inst{}, fams: map[uint64]*family{},
		grps: map[uint64]*group{}, only: map[uint64]string{}}
}

// Attach makes f — a fresh trace, installed before the engine ran its
// first transaction — the trace the checker drains, and classes the
// resolver: the first call, and once more for every engine incarnation
// after a crash (after Crash).
func (c *Checker) Attach(f *obs.Flight, classes Classes) {
	c.trace, c.seq, c.resolve, c.classes = f, 0, classes, nil
}

// Stats returns what the checker has checked so far.
func (c *Checker) Stats() Stats { return c.stats }

// Drain reads every trace event recorded since the last drain and
// checks it.
func (c *Checker) Drain() error {
	total := c.trace.Total()
	if total == c.seq {
		return nil
	}
	evs := c.trace.Events(int(total - c.seq))
	if len(evs) == 0 || evs[0].Seq != c.seq+1 || uint64(len(evs)) != total-c.seq {
		return fmt.Errorf("%w: trace gap: events %d..%d recorded, %d retained", ErrDivergence, c.seq+1, total, len(evs))
	}
	for i := range evs {
		if err := c.event(&evs[i]); err != nil {
			return fmt.Errorf("trace event %d (%s): %w", evs[i].Seq, evs[i].Stage, err)
		}
		c.seq = evs[i].Seq
	}
	return nil
}

func (c *Checker) event(ev *obs.FlightEvent) error {
	switch ev.Stage {
	case obs.StageMask, obs.StageStep:
		g := c.grps[ev.TxID]
		if g == nil || g.oid != ev.OID || g.c.name != ev.Class {
			return fmt.Errorf("%w: %s of trigger %s at object %d outside its happening", ErrDivergence, ev.Stage, ev.Trigger, ev.OID)
		}
		t := g.c.trigs[ev.Trigger]
		if t == nil {
			return fmt.Errorf("%w: class %s has no trigger %q", ErrDivergence, ev.Class, ev.Trigger)
		}
		if ev.Stage == obs.StageMask {
			g.bits[t.ix] = uint32(ev.To)
			return nil
		}
		return c.step(g, ev, t)
	}
	// A transaction posts from one goroutine: any other record of it ends
	// its open happening, and a record on an object ends another
	// transaction's (a cohort tick holds a member's lock for its step
	// alone).
	if g := c.grps[ev.TxID]; g != nil {
		c.close(g)
	}
	if ev.Stage == obs.StageHappening || ev.Stage == obs.StageActivate || ev.Stage == obs.StageDeactivate {
		for _, g := range c.grps {
			if g.oid == ev.OID {
				c.close(g)
			}
		}
	}
	switch ev.Stage {
	case obs.StageTxBegin:
		if parent := c.fams[uint64(ev.From)]; ev.From != 0 && parent != nil {
			parent.phase, parent.save = ev.TxID, len(parent.log)
			c.fams[ev.TxID] = parent
		} else {
			c.fams[ev.TxID] = &family{root: ev.TxID, latest: map[key]int{}}
		}
	case obs.StageTxCommit, obs.StageTxAbort:
		// The root's record ends the family: its one frame is logged (a
		// frame that failed was rolled back first, StageRollback).
		if f := c.fams[ev.TxID]; f != nil && f.root == ev.TxID {
			delete(c.fams, f.root)
			delete(c.fams, f.phase)
		}
	case obs.StageTimer:
		c.only[ev.TxID] = ev.Trigger
	case obs.StageHappening:
		return c.happening(ev)
	case obs.StageActivate, obs.StageDeactivate:
		f, t, err := c.lookup(ev)
		if err != nil {
			return err
		}
		k := key{ev.OID, ev.Trigger}
		in := c.change(f, k)
		if ev.Stage == obs.StageActivate {
			*in = inst{class: ev.Class, active: true, state: t.auto.Start()}
		} else {
			in.class, in.active = ev.Class, false
		}
	case obs.StageRollback:
		f := c.fams[ev.TxID]
		if f == nil {
			return fmt.Errorf("%w: rollback of unknown transaction %d", ErrDivergence, ev.TxID)
		}
		if ev.From == 1 && c.post == nil {
			c.post = c.frame(f)
		}
		c.rollback(f, ev.TxID != f.root, ev.OK)
	}
	return nil
}

// lookup resolves an activation record's family and trigger.
func (c *Checker) lookup(ev *obs.FlightEvent) (*family, *trig, error) {
	f := c.fams[ev.TxID]
	if f == nil {
		return nil, nil, fmt.Errorf("%w: %s in unknown transaction %d", ErrDivergence, ev.Stage, ev.TxID)
	}
	cl, err := c.class(ev.Class)
	if err != nil {
		return nil, nil, err
	}
	t := cl.trigs[ev.Trigger]
	if t == nil {
		return nil, nil, fmt.Errorf("%w: class %s has no trigger %q", ErrDivergence, ev.Class, ev.Trigger)
	}
	return f, t, nil
}

func (c *Checker) class(name string) (*class, error) {
	if cl := c.classes[name]; cl != nil {
		return cl, nil
	}
	decl := c.resolve(name)
	if decl == nil {
		return nil, fmt.Errorf("%w: unknown class %q", ErrDivergence, name)
	}
	cl := &class{name: name, alpha: decl.Alphabet, kinds: map[string]int{}, trigs: map[string]*trig{}}
	for kix, k := range decl.Alphabet.Kinds {
		cl.kinds[k.Kind.String()] = kix
	}
	for i, t := range decl.Triggers {
		ct := &trig{Trigger: t, ix: i, auto: compile.CompileShared(t.Res.Expr, decl.Alphabet.NumSymbols)}
		cl.list = append(cl.list, ct)
		cl.trigs[t.Res.Name] = ct
	}
	if c.classes == nil {
		c.classes = map[string]*class{}
	}
	c.classes[name] = cl
	return cl, nil
}

// happening opens the group of a happening's steps.
func (c *Checker) happening(ev *obs.FlightEvent) error {
	only := c.only[ev.TxID]
	delete(c.only, ev.TxID)
	f := c.fams[ev.TxID]
	if f == nil {
		return fmt.Errorf("%w: happening in unknown transaction %d", ErrDivergence, ev.TxID)
	}
	cl, err := c.class(ev.Class)
	if err != nil {
		return err
	}
	kix, ok := cl.kinds[ev.Kind]
	if !ok {
		return fmt.Errorf("%w: class %s has no kind %q", ErrDivergence, ev.Class, ev.Kind)
	}
	if k := cl.alpha.Kinds[kix].Kind; k.Class == event.KTabort && k.Phase == event.After && !f.rolledBack {
		return fmt.Errorf("%w: %s posted to object %d before transaction %d rolled back", ErrDivergence, ev.Kind, ev.OID, f.root)
	}
	g := &group{}
	if n := len(c.spare); n > 0 {
		g, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	*g = group{tx: ev.TxID, oid: ev.OID, c: cl, kix: kix, fam: f,
		bits: g.bits[:0], stepped: g.stepped[:0]}
	c.grps[ev.TxID] = g
	if only != "" {
		if g.only = cl.trigs[only]; g.only == nil {
			return fmt.Errorf("%w: class %s has no trigger %q", ErrDivergence, ev.Class, only)
		}
	}
	for range cl.list {
		g.bits, g.stepped = append(g.bits, 0), append(g.stepped, false)
	}
	return nil
}

// sees reports whether t's history includes happenings of kind kix.
func (g *group) sees(t *trig) bool {
	return t.View == schema.WholeView || g.c.alpha.Kinds[g.kix].Kind.Class != event.KTabort
}

// step checks one StageStep and extends the instance's history.
func (c *Checker) step(g *group, ev *obs.FlightEvent, t *trig) error {
	k := key{ev.OID, ev.Trigger}
	switch in := c.insts[k]; {
	case g.only != nil && g.only != t:
		return fmt.Errorf("%w: trigger %s at object %d stepped on a time event of trigger %s", ErrDivergence, ev.Trigger, ev.OID, g.only.Res.Name)
	case !g.sees(t):
		return fmt.Errorf("%w: committed-view trigger %s at object %d stepped on %s", ErrDivergence, ev.Trigger, ev.OID, ev.Kind)
	case in == nil || !in.active:
		return fmt.Errorf("%w: inactive trigger %s at object %d stepped on %s", ErrDivergence, ev.Trigger, ev.OID, ev.Kind)
	case g.stepped[t.ix]:
		return fmt.Errorf("%w: trigger %s at object %d stepped twice on one %s", ErrDivergence, ev.Trigger, ev.OID, ev.Kind)
	case ev.From != in.state:
		return fmt.Errorf("%w: trigger %s at object %d stepped from state %d, the model's history %v replays to %d",
			ErrDivergence, ev.Trigger, ev.OID, ev.From, in.hist, in.state)
	}
	g.stepped[t.ix] = true
	sym := g.c.alpha.Symbol(g.kix, g.bits[t.ix])
	in := c.change(g.fam, k)
	in.hist = append(in.hist, sym)
	in.state = t.auto.Next(in.state, sym)
	if ev.To != in.state {
		return fmt.Errorf("%w: trigger %s at object %d stepped %d → %d on symbol %d, the automaton → %d",
			ErrDivergence, ev.Trigger, ev.OID, ev.From, ev.To, sym, in.state)
	}
	c.stats.Steps++
	return c.label(k, in, t, true, ev.OK)
}

// label checks the §4 labels of in's history points since the last
// check: each point the engine did not step must be unlabeled, and the
// last one, if stepped, labeled as the step's verdict (accepted).
func (c *Checker) label(k key, in *inst, t *trig, stepped, accepted bool) error {
	labels := algebra.FiringPoints(t.Res.Expr, in.hist)
	for p := in.checked; p < len(labels); p++ {
		want, inert := false, !stepped || p < len(labels)-1
		if !inert {
			want = accepted
		}
		if labels[p] != want {
			return fmt.Errorf("%w: trigger %s at object %d, history point %d/%d (stepped %v): engine fired=%v, §4 oracle=%v (history %v)",
				ErrDivergence, k.trig, k.oid, p, len(labels), !inert, want, labels[p], in.hist)
		}
		if inert {
			c.stats.Inert++
		}
	}
	in.checked = len(labels)
	return nil
}

// close ends an open happening: every active instance of the object the
// engine did not step on it, and whose view sees the kind, reads the
// kind's mask-free symbol.
func (c *Checker) close(g *group) {
	delete(c.grps, g.tx)
	c.spare = append(c.spare, g)
	for _, t := range g.c.list {
		if g.stepped[t.ix] || g.only != nil && g.only != t || !g.sees(t) {
			continue
		}
		k := key{g.oid, t.Res.Name}
		if in := c.insts[k]; in == nil || !in.active {
			continue
		}
		in := c.change(g.fam, k)
		in.hist = append(in.hist, g.c.alpha.Symbol(g.kix, 0))
	}
}

// change returns k's instance for f to change, saving what it was first.
func (c *Checker) change(f *family, k key) *inst {
	last, seen := f.latest[k]
	if !seen || f.phase != 0 && last < f.save {
		u := c.snap(k)
		u.prev = -1
		if seen {
			u.prev = last
		}
		f.latest[k] = len(f.log)
		f.log = append(f.log, u)
	}
	in := c.insts[k]
	if in == nil {
		in = &inst{}
		c.insts[k] = in
	}
	return in
}

// rollback undoes f's changes since its phase's savepoint (phase) or its
// begin. With keep, a whole-view instance active before and after keeps
// what it has seen; its entry stays in the log, since what it keeps is
// durable only with the family's frame.
func (c *Checker) rollback(f *family, phase, keep bool) {
	from := 0
	if phase {
		from = f.save
	}
	var kept []undo
	for i := len(f.log) - 1; i >= from; i-- {
		u := f.log[i]
		f.latest[u.k] = u.prev
		if u.prev < 0 {
			delete(f.latest, u.k)
		}
		in := c.insts[u.k]
		if keep && u.ok && u.pre.active && in != nil && in.active && c.view(u.k, in) == schema.WholeView {
			if u.prev < 0 {
				kept = append(kept, u)
			}
			continue
		}
		c.put(u)
	}
	f.log = f.log[:from]
	for _, u := range kept {
		f.latest[u.k] = len(f.log)
		f.log = append(f.log, u)
	}
	if f.phase != 0 {
		delete(c.fams, f.phase)
		f.phase = 0
	}
	if !phase {
		f.rolledBack = true
	}
}

func (c *Checker) view(k key, in *inst) schema.HistoryView {
	if cl, err := c.class(in.class); err == nil && cl.trigs[k.trig] != nil {
		return cl.trigs[k.trig].View
	}
	return schema.CommittedView
}

// frame is what f's frame holds: each instance it changed as it is now
// (ok false: gone).
func (c *Checker) frame(f *family) []undo {
	out := []undo{}
	for k := range f.latest {
		out = append(out, c.snap(k))
	}
	return out
}

// snap is k's instance as it is now.
func (c *Checker) snap(k key) undo {
	u := undo{k: k}
	if in := c.insts[k]; in != nil {
		u.pre, u.ok = *in, true
		u.pre.hist = slices.Clip(in.hist)
	}
	return u
}

// Crash drops whatever no commit record covers: the engine incarnation
// is gone, its next one recovers from the log. Recover checks what it
// recovered; Attach installs its trace.
func (c *Checker) Crash() {
	c.closeAll()
	seen := map[*family]bool{}
	for _, f := range c.fams {
		if !seen[f] {
			seen[f] = true
			for i := len(f.log) - 1; i >= 0; i-- {
				c.put(f.log[i])
			}
		}
	}
	c.fams, c.only = map[uint64]*family{}, map[uint64]string{}
}

func (c *Checker) closeAll() {
	for _, g := range c.grps {
		c.close(g)
	}
}

// Recover checks st, just recovered after Crash, against the model: the
// stored trigger state must be the committed history's, or — if a frame
// failed to log before the crash — that frame's, whole. The model takes
// the side st is on.
func (c *Checker) Recover(st *store.Store) error {
	post := c.post
	c.post = nil
	if post != nil {
		saved := make([]undo, 0, len(post))
		for _, u := range post {
			saved = append(saved, c.snap(u.k))
			c.put(u)
		}
		postErr := c.compare(st)
		if postErr == nil {
			return nil
		}
		for _, s := range saved {
			c.put(s)
		}
		if preErr := c.compare(st); preErr != nil {
			return fmt.Errorf("recovered trigger state is neither the failed frame's (%v) nor the committed one (%v)", postErr, preErr)
		}
		return nil
	}
	return c.compare(st)
}

// put makes u's instance what u holds (its hist is clipped, so appends
// never write into the array it shares).
func (c *Checker) put(u undo) {
	if !u.ok {
		delete(c.insts, u.k)
		return
	}
	in := u.pre
	c.insts[u.k] = &in
}

// Verify checks, at a quiescent point, every instance's remaining §4
// labels and st's trigger state against the model.
func (c *Checker) Verify(st *store.Store) error {
	c.closeAll()
	for k, in := range c.insts {
		cl, err := c.class(in.class)
		if err != nil || cl.trigs[k.trig] == nil || in.checked == len(in.hist) {
			continue
		}
		if err := c.label(k, in, cl.trigs[k.trig], false, false); err != nil {
			return err
		}
	}
	return c.compare(st)
}

// compare checks every stored object's trigger slots against the model.
func (c *Checker) compare(st *store.Store) error {
	for _, oid := range st.OIDs() {
		rec, err := st.Get(oid)
		if err != nil {
			continue
		}
		cl, err := c.class(rec.Class)
		if err != nil {
			return err
		}
		for _, t := range cl.list {
			name := t.Res.Name
			var got store.TrigState
			for slot := range rec.Trigs {
				if rec.TrigName(slot) == name {
					got = rec.Trigs[slot]
				}
			}
			in := c.insts[key{uint64(oid), name}]
			switch active := in != nil && in.active; {
			case got.Active != active:
				return fmt.Errorf("%w: trigger %s at object %d stored active=%v, the model's %v", ErrDivergence, name, oid, got.Active, active)
			case active && int(got.State) != in.state:
				return fmt.Errorf("%w: trigger %s at object %d stored in state %d, the model's history %v replays to %d",
					ErrDivergence, name, oid, got.State, in.hist, in.state)
			}
		}
	}
	return nil
}
