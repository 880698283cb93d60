package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/mask"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// Registration-time compilation of the posting hot path (the paper's §5
// cost promise is one table lookup and one integer of state per posted
// event; everything here exists to keep step() at that price):
//
//   - phases: per kind index, the kind as every record of it is stamped
//     and the triggers a happening of that kind can affect at all,
//     folding in the kind-relevance bitmap and the committed-view/tabort
//     rule so step() never scans triggers that provably cannot react;
//   - compiled mask programs: each §5 disjointness mask is lowered once
//     per (trigger, kind) pair to a mask.Program with names resolved to
//     positions in the happening's and the activation's parameter rows,
//     so evaluation allocates nothing and does no string-keyed lookups
//     (they are the posting path's only mask evaluator);
//   - calls: per method, its declaration, its body and the two phases
//     posted around it, so a call resolves its name once; life: the
//     phases of the lifecycle kinds, so creating an object, first
//     accessing one or a transaction's lifecycle run (Tx.lifeRun)
//     resolves no kind;
//   - trigger slots: each trigger resolves, by name, to its index into
//     Record.Trigs (the store's per-class layout), so the per-happening
//     state access is an array index instead of a map probe.

// phase is a class's posting plan for one happening kind. Tx.step reads
// nothing else about the kind.
type phase struct {
	kind   event.Kind
	kindIx int
	kindID uint16 // interned flight-recorder / provenance id of name
	// name is the kind rendered once, for the firing path
	// (ActionCtx.EventKind, FiringRecord.Kind): formatting it per firing
	// would allocate.
	name    string
	entries []dispatchEntry
}

// dispatchEntry is one trigger's precomputed reaction to one kind.
type dispatchEntry struct {
	t    *Trigger
	used uint32 // t.Res.UsedBits[kindIx], hoisted
	// progs[bit] is the compiled program for the kind's mask bit, nil
	// where the bit is unused by this trigger. A nil slice means the
	// kind has no used masks.
	progs []*mask.Program
}

// call is a method's posting plan: its declaration, its body and the
// phases posted before and after it.
type call struct {
	m             *schema.Method
	impl          MethodImpl
	before, after *phase
}

// lifeKinds are the lifecycle kinds of every object (§3.1): its creation
// and deletion, and the transaction events a transaction posts to the
// objects it accesses, in Class.life order.
var lifeKinds = [...]event.Kind{
	{Phase: event.After, Class: event.KCreate},
	{Phase: event.Before, Class: event.KDelete},
	{Phase: event.After, Class: event.KTbegin},
	{Phase: event.Before, Class: event.KTcomplete},
	{Phase: event.After, Class: event.KTcommit},
	{Phase: event.Before, Class: event.KTabort},
	{Phase: event.After, Class: event.KTabort},
}

// Indices into lifeKinds and Class.life.
const (
	lifeCreate = iota
	lifeDelete
	lifeTbegin
	lifeTcomplete
	lifeTcommit
	lifeBeforeTabort
	lifeTabort
)

// phaseOf returns the class's plan for a kind of its alphabet.
func (c *Class) phaseOf(k event.Kind) (*phase, error) {
	kix := c.Res.Alphabet.KindIndex(k)
	if kix < 0 {
		return nil, fmt.Errorf("engine: class %s cannot experience %s", c.Schema.Name, k)
	}
	return &c.phases[kix], nil
}

// buildPhases fills c.phases, c.calls and c.life. A trigger is
// dispatched only the kinds that can move it (Trigger.relevant);
// committed-view triggers are never dispatched tabort events (§6: the
// aborted history is not part of the committed history).
func (e *Engine) buildPhases(c *Class) error {
	kinds := c.Res.Alphabet.Kinds
	c.phases = make([]phase, len(kinds))
	for kix := range kinds {
		ph := &c.phases[kix]
		ph.kind, ph.kindIx, ph.name = kinds[kix].Kind, kix, kinds[kix].Kind.String()
		ph.kindID = e.names.Intern(ph.name)
		for _, t := range c.Triggers {
			if !t.relevant[kix] {
				continue
			}
			if t.View == schema.CommittedView && ph.kind.Class == event.KTabort {
				continue
			}
			used := t.Res.UsedBits[kix]
			progs, err := compileMaskProgs(c, kix, used, t.Res.Params)
			if err != nil {
				return fmt.Errorf("engine: class %s trigger %s: %w", c.Schema.Name, t.Res.Name, err)
			}
			ph.entries = append(ph.entries, dispatchEntry{t: t, used: used, progs: progs})
		}
	}
	c.calls = make(map[string]*call, len(c.Schema.Methods))
	for i := range c.Schema.Methods {
		m := &c.Schema.Methods[i]
		cl := &call{m: m, impl: c.Impl.Methods[m.Name]}
		var err error
		if cl.before, err = c.phaseOf(event.MethodKind(event.Before, m.Name)); err != nil {
			return err
		}
		if cl.after, err = c.phaseOf(event.MethodKind(event.After, m.Name)); err != nil {
			return err
		}
		c.calls[m.Name] = cl
	}
	for i, k := range lifeKinds {
		var err error
		if c.life[i], err = c.phaseOf(k); err != nil {
			return err
		}
	}
	return nil
}

// compileMaskProgs compiles the used mask bits of kind kix for a
// trigger with the given parameter list.
func compileMaskProgs(c *Class, kix int, used uint32, trigParams []string) ([]*mask.Program, error) {
	if used == 0 {
		return nil, nil
	}
	ki := &c.Res.Alphabet.Kinds[kix]
	progs := make([]*mask.Program, len(ki.Masks))
	for bit := range ki.Masks {
		if used&(1<<bit) == 0 {
			continue
		}
		r := &maskSlotResolver{cls: c.Schema, kind: ki.Kind, rename: ki.Masks[bit].Rename, trig: trigParams}
		p, err := mask.CompileExpr(ki.Masks[bit].Expr, r)
		if err != nil {
			return nil, err
		}
		progs[bit] = p
	}
	return progs, nil
}

// maskSlotResolver resolves mask variables to dense slots, nearest scope
// first: a declared formal renames to the schema parameter (no
// fallthrough on a miss), then the happening's parameters by schema
// name, then the trigger's activation parameters, then the object's
// fields. scope_test.go pins the order.
type maskSlotResolver struct {
	cls    *schema.Class
	kind   event.Kind
	rename map[string]string
	trig   []string
}

func (r *maskSlotResolver) ResolveVar(name string) (mask.Slot, bool) {
	if r.rename != nil {
		if schemaName, ok := r.rename[name]; ok {
			// A formal that renames to a name the kind does not
			// bind is absent, never something else.
			if ix := r.eventParamIx(schemaName); ix >= 0 {
				return mask.Slot{Kind: mask.SlotEventParam, Index: ix, Name: schemaName}, true
			}
			return mask.Slot{}, false
		}
	}
	if ix := r.eventParamIx(name); ix >= 0 {
		return mask.Slot{Kind: mask.SlotEventParam, Index: ix, Name: name}, true
	}
	for i, p := range r.trig {
		if p == name {
			return mask.Slot{Kind: mask.SlotTrigParam, Index: i, Name: name}, true
		}
	}
	for i := range r.cls.Fields {
		if r.cls.Fields[i].Name == name {
			return mask.Slot{Kind: mask.SlotField, Index: i, Name: name}, true
		}
	}
	return mask.Slot{}, false
}

// eventParamIx returns the dense index of a method parameter for the
// resolver's kind, or -1 (only method happenings carry parameters).
func (r *maskSlotResolver) eventParamIx(name string) int {
	if r.kind.Class != event.KMethod {
		return -1
	}
	return r.cls.Method(r.kind.Method).ParamIndex(name)
}

// progHost serves the residual dynamic operations of compiled mask
// programs. One lives on the Tx and is reused by address so the
// Host interface conversion never allocates; step saves and restores
// it by value around each evaluation, which keeps nested
// evaluations (a mask calling a read method whose posting evaluates
// further masks) correct.
type progHost struct {
	tx   *Tx
	self store.OID
	rec  *store.Record
	cls  *Class
}

func (h *progHost) Field(ix int, name string) (value.Value, bool) {
	return h.rec.Field(name)
}

func (h *progHost) DotField(base value.Value, name string) (value.Value, error) {
	return h.tx.maskDotField(base, name)
}

func (h *progHost) Call(name string, args []value.Value) (value.Value, error) {
	return h.tx.maskCall(h.cls, h.self, name, args)
}
