package engine

import (
	"ode/internal/compile"
	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/fa"
	"ode/internal/mask"
	"ode/internal/schema"
	"ode/internal/store"
)

// Footnote 5 of the paper: "In many cases such automata may be
// combined into one, resulting in a more efficient monitoring."
// When Options.CombinedAutomata is set, eligible classes monitor all
// triggers with a single product automaton: one transition (and one
// word of per-object state *total*) per posted event, instead of one
// per trigger.
//
// Eligibility is semantic, not just mechanical. The combined state is
// shared, so per-trigger history starts cannot be represented:
//   - every trigger must be perpetual (ordinary triggers deactivate on
//     firing and would later re-activate with a fresh history);
//   - every trigger must use the committed view (the single state word
//     lives in the record and rolls back with it);
//   - no trigger may take activation parameters (mask evaluation must
//     not depend on the instance).
//
// Activation semantics under combination: the object's shared history
// begins at the first activation of any trigger; activating further
// triggers later joins them to the shared history mid-stream, and
// deactivation merely suppresses firing. This matches the paper's §3.5
// pattern of activating everything in the constructor.
const combinedSlot = "__combined"

// combinedMonitor is the per-class combined automaton.
type combinedMonitor struct {
	comb *compile.Combined
	slot int            // Record.Trigs slot of the shared state word
	used map[int]uint32 // kindIx → union of mask bits any trigger needs
	// progs[kindIx] holds the compiled programs for the used bits
	// (compiled with no trigger parameters — eligibility forbids them).
	progs map[int][]*mask.Program
}

// buildCombined returns nil when the class is ineligible. Fire-bit j of
// the product automaton belongs to c.Triggers[j]; the shared state word
// takes a slot of its own in the class layout.
func buildCombined(c *Class, layout *store.Layout) *combinedMonitor {
	if len(c.Triggers) == 0 || len(c.Triggers) > 64 {
		return nil
	}
	dfas := make([]*fa.DFA, len(c.Triggers))
	used := map[int]uint32{}
	for i, t := range c.Triggers {
		if !t.Res.Perpetual || t.View != schema.CommittedView || len(t.Res.Params) > 0 {
			return nil
		}
		// 'after'-mode timers deliver to a single trigger; a shared
		// automaton cannot advance selectively.
		for _, tr := range t.Res.Timers {
			if tr.Mode == evlang.TimeAfter {
				return nil
			}
		}
		dfas[i] = t.Oracle()
		for kix, bits := range t.Res.UsedBits {
			used[kix] |= bits
		}
	}
	return &combinedMonitor{
		comb: compile.Combine(dfas),
		slot: layout.Intern(combinedSlot),
		used: used,
	}
}

// stepCombined advances the object's single combined state and returns
// the triggers to fire. Called from step() in place of the per-trigger
// loop.
func (tx *Tx) stepCombined(c *Class, cm *combinedMonitor, kindIx int,
	h event.Happening, oid store.OID, rec *store.Record) ([]*Trigger, error) {
	// The shared history exists only once some trigger is active. The
	// caller (step) has already sized the record's slots.
	anyActive := false
	for _, t := range c.Triggers {
		if rec.Trigs[t.slot].Active {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return nil, nil
	}
	// Committed view only: abort events are invisible (§6).
	if h.Kind.Class == event.KTabort {
		return nil, nil
	}
	bits, err := tx.evalBitsMask(c, nil, cm.progs[kindIx], cm.used[kindIx], kindIx, h, nil, oid, rec, nil)
	if err != nil {
		return nil, err
	}
	if used := cm.used[kindIx]; used != 0 {
		tx.e.traceMask(tx.tx.ID(), oid, c.Schema.Name, combinedSlot, used, bits)
	}
	sym := c.Res.Alphabet.Symbol(kindIx, bits)

	slot := &rec.Trigs[cm.slot]
	if !slot.Active {
		slot.Active = true
		slot.State = cm.comb.Start
	}
	prev := slot.State
	next, fireMask := cm.comb.Post(prev, sym)
	slot.State = next
	tx.e.stats.steps.Add(1)
	tx.e.traceStep(tx.tx.ID(), oid, c.Schema.Name, combinedSlot, prev, next, fireMask != 0)

	var fired []*Trigger
	for j, t := range c.Triggers {
		if fireMask&(1<<uint(j)) == 0 {
			continue
		}
		if !rec.Trigs[t.slot].Active {
			continue // suppressed: deactivated triggers do not fire
		}
		fired = append(fired, t)
	}
	return fired, nil
}
