package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/mask"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// Batch posting: the one-at-a-time hot path (tx.Call → step) already
// avoids allocation, but it still pays per-happening costs that only
// exist because each call arrives alone — an atomic metric update per
// step and per mask evaluation, a flight record per happening, and
// repeated method/kind resolution. PostBatch amortizes all of them: a
// Batch is a columnar run of method calls against objects of one class,
// and posting it resolves each distinct method once into a cached plan
// (declaration, implementation, dispatch slices, kind ids), then streams the entries
// through a tight loop that accumulates metrics in plain integers and
// flushes them once per batch.
//
// Semantics are exactly those of calling tx.Call for each entry in
// order and discarding the results: identical happenings, firing
// order, provenance, traces, and error positions; execution stops at
// the first error. The equivalence is tested against randomized
// workloads run both ways under the §4 shadow oracle.

// Batch is a columnar buffer of method calls against objects of one
// class. Build it with NewBatch and Call, post it with Tx.PostBatch or
// Database.PostBatch, and Reset it to reuse the buffer (and its cached
// posting plan) for the next batch. A Batch is not safe for concurrent
// use, and must not be posted again from inside a method or trigger
// action that a posting of the same Batch is executing.
type Batch struct {
	class  string
	oids   []store.OID
	meth   []uint16 // index into methods, per entry
	argOff []uint32 // prefix offsets into args; len(oids)+1 entries
	args   []value.Value
	// methods interns each distinct method name once; meth references
	// it so the per-entry footprint stays fixed-width.
	methods []string

	// Cached posting plan, rebuilt lazily when the batch first meets an
	// engine/class or after new methods were interned. Reset keeps it.
	planE *Engine
	planC *Class
	planN int
	plan  []batchMethod
}

// NewBatch returns an empty batch for objects of the named class, with
// room for capacity entries before the first append grows it.
func NewBatch(class string, capacity int) *Batch {
	return &Batch{
		class:  class,
		oids:   make([]store.OID, 0, capacity),
		meth:   make([]uint16, 0, capacity),
		argOff: append(make([]uint32, 0, capacity+1), 0),
	}
}

// Call appends one method call to the batch.
func (b *Batch) Call(oid store.OID, method string, args ...value.Value) {
	mi := -1
	for i, m := range b.methods {
		if m == method {
			mi = i
			break
		}
	}
	if mi < 0 {
		mi = len(b.methods)
		b.methods = append(b.methods, method)
	}
	b.oids = append(b.oids, oid)
	b.meth = append(b.meth, uint16(mi))
	b.args = append(b.args, args...)
	b.argOff = append(b.argOff, uint32(len(b.args)))
}

// Len returns the number of entries in the batch.
func (b *Batch) Len() int { return len(b.oids) }

// Class returns the class the batch posts against.
func (b *Batch) Class() string { return b.class }

// Entry returns entry i: the target OID, the method name, and the
// argument run (aliasing the batch's pool — callers must not mutate
// or retain it past the batch's next Reset). The partition router uses
// it to re-post entries into per-partition batches.
func (b *Batch) Entry(i int) (store.OID, string, []value.Value) {
	return b.oids[i], b.methods[b.meth[i]], b.args[b.argOff[i]:b.argOff[i+1]]
}

// Reset empties the batch for reuse, keeping the interned method names
// and the cached posting plan — a steady-state fill/post/Reset cycle
// allocates nothing.
func (b *Batch) Reset() {
	b.oids = b.oids[:0]
	b.meth = b.meth[:0]
	b.args = b.args[:0]
	b.argOff = b.argOff[:1]
}

// batchPhase is the posting plan for one phase (before/after) of one
// method: the resolved kind, its dispatch slice, and per-dispatch-entry
// metric accumulators that flush once per batch.
type batchPhase struct {
	kind    event.Kind
	kindIx  int
	kindID  uint16
	entries []dispatchEntry // aliases the class dispatch table
	// count is the happenings of this kind the batch posted, flushed as
	// one StageBatch flight summary (per-event stamping would dominate
	// the loop; see obs.StageBatch).
	count uint64
	// Parallel to entries; flushed to each trigger's metrics and zeroed
	// by flushBatch.
	steps, evals, falses []uint64
}

// batchMethod is the cached posting plan for one interned method.
type batchMethod struct {
	m             *schema.Method
	impl          MethodImpl
	before, after batchPhase
	// err records a plan-time failure (unknown method, kind outside the
	// alphabet), reported when the first entry using the method
	// executes — the position tx.Call would report it from. errStep
	// marks errors tx.Call surfaces through propagate (aborting).
	err     error
	errStep bool
}

// batchCounters accumulates the engine-wide statistics one PostBatch
// call generates, flushed with one atomic add per counter.
type batchCounters struct {
	happenings, steps, maskEvals, provSteps uint64
}

// buildPlan resolves every interned method against the engine/class
// pair. Plan errors are recorded per method, not returned: a batch may
// carry entries for a bad method that execution never reaches.
func (b *Batch) buildPlan(e *Engine, c *Class) {
	b.planE, b.planC, b.planN = e, c, len(b.methods)
	b.plan = make([]batchMethod, len(b.methods))
	for i, name := range b.methods {
		bm := &b.plan[i]
		m := c.Schema.Method(name)
		if m == nil {
			bm.err = fmt.Errorf("engine: class %s has no method %q", c.Schema.Name, name)
			continue
		}
		bm.m = m
		bm.impl = c.Impl.Methods[name]
		bm.before.kind = event.MethodKind(event.Before, name)
		bm.after.kind = event.MethodKind(event.After, name)
		for _, ph := range [...]*batchPhase{&bm.before, &bm.after} {
			kix := c.Res.Alphabet.KindIndex(ph.kind)
			if kix < 0 {
				// Unreachable for a schema method (the alphabet carries a
				// before/after pair per method), but keep step()'s report.
				bm.err = fmt.Errorf("engine: class %s cannot experience %s", c.Schema.Name, ph.kind)
				bm.errStep = true
				break
			}
			ph.kindIx = kix
			ph.kindID = c.kindIDs[kix]
			ph.entries = c.dispatch[kix]
			ph.steps = make([]uint64, len(ph.entries))
			ph.evals = make([]uint64, len(ph.entries))
			ph.falses = make([]uint64, len(ph.entries))
		}
	}
}

// PostBatch executes the batch's method calls in order within this
// transaction, exactly as tx.Call would, stopping at the first error.
// Return values of the methods are discarded. See Batch for the
// reuse/aliasing rules; like every Tx operation it must run on the
// transaction's goroutine.
func (tx *Tx) PostBatch(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	c := tx.e.Class(b.class)
	if c == nil {
		return fmt.Errorf("engine: unregistered class %q", b.class)
	}
	if c.monitor != nil || tx.e.interpretMasks {
		// Combined monitoring and interpreted masks take paths the batch
		// plan does not compile; fall back to the definitionally
		// equivalent loop.
		return tx.postBatchSlow(b)
	}
	if b.planE != tx.e || b.planC != c || b.planN != len(b.methods) {
		b.buildPlan(tx.e, c)
	}

	// One timestamp per batch: the virtual clock only advances between
	// transactions, so every happening of this transaction already
	// shares it.
	now := tx.e.clk.Now()
	txid := tx.tx.ID()
	var bc batchCounters
	defer tx.flushBatch(c, b, &bc, now.UnixNano(), txid)
	base := len(tx.evArena)
	defer func() { tx.evArena = tx.evArena[:base] }()

	for i := range b.oids {
		bm := &b.plan[b.meth[i]]
		// Access first, as tx.Call does: an entry that fails any check
		// below has still first-accessed its object.
		rec, err := tx.batchAccess(b.oids[i])
		if err != nil {
			return err
		}
		if rec.Class != b.class {
			return fmt.Errorf("engine: batch for class %s posted to object %d of class %s",
				b.class, b.oids[i], rec.Class)
		}
		if bm.err != nil {
			if bm.errStep {
				return tx.propagate(bm.err)
			}
			return bm.err
		}
		// Each entry's arguments are one row of the Tx's arena, as in
		// tx.Call; the next entry reuses the region.
		tx.evArena = tx.evArena[:base]
		row, err := tx.bindArgs(bm.m, b.args[b.argOff[i]:b.argOff[i+1]])
		if err != nil {
			return fmt.Errorf("engine: %s.%s %w", rec.Class, bm.m.Name, err)
		}

		h := event.Happening{
			Kind:   bm.before.kind,
			Params: row,
			TxID:   txid,
			At:     now,
		}
		// A phase no trigger listens on and no observer (history book,
		// tracer) can see reduces to its counters; skipping the full step
		// saves real time on before-kinds, which most triggers ignore.
		if len(bm.before.entries) == 0 && tx.e.book.Load() == nil && tx.e.traceBox.Load() == nil {
			bc.happenings++
			bm.before.count++
		} else if err := tx.stepBatch(c, &bm.before, b.oids[i], rec, &h, &bc); err != nil {
			return tx.propagate(err)
		}

		if _, err := tx.invoke(bm.impl, b.oids[i], bm.m, row); err != nil {
			return tx.propagate(err)
		}

		h.Kind = bm.after.kind
		if len(bm.after.entries) == 0 && tx.e.book.Load() == nil && tx.e.traceBox.Load() == nil {
			bc.happenings++
			bm.after.count++
		} else if err := tx.stepBatch(c, &bm.after, b.oids[i], rec, &h, &bc); err != nil {
			return tx.propagate(err)
		}
	}
	return nil
}

// postBatchSlow executes the batch through the one-at-a-time path —
// the semantic definition of PostBatch.
func (tx *Tx) postBatchSlow(b *Batch) error {
	for i := range b.oids {
		args := b.args[b.argOff[i]:b.argOff[i+1]]
		if _, err := tx.Call(b.oids[i], b.methods[b.meth[i]], args...); err != nil {
			return err
		}
	}
	return nil
}

// batchAccess is tx.access with the transaction's single-entry record
// cache primed, so consecutive batch entries (and the field accesses
// of the method implementations they run) hitting the same object skip
// the lock-table and store lookups.
func (tx *Tx) batchAccess(oid store.OID) (*store.Record, error) {
	if tx.cachedRec != nil && oid == tx.cachedOID {
		return tx.cachedRec, nil
	}
	rec, err := tx.access(oid)
	if err != nil {
		return nil, err
	}
	tx.cachedOID, tx.cachedRec = oid, rec
	return rec, nil
}

// stepBatch is step() specialized to a prepared batchPhase: the kind is
// pre-resolved, the dispatch slice is hoisted, mask programs evaluate
// through mask.EvalBits, and metrics accumulate in the phase/counter
// scratch instead of paying atomic updates per happening. Combined
// monitoring and onlyTrigger delivery never reach here (PostBatch and
// cohort timer delivery route monitored classes through the per-call
// paths; 'after' one-shots post one-at-a-time via postTimer).
func (tx *Tx) stepBatch(c *Class, ph *batchPhase, oid store.OID, rec *store.Record,
	h *event.Happening, bc *batchCounters) error {
	tx.e.recordHappening(oid, *h)
	bc.happenings++
	ph.count++
	tx.e.traceHappening(h.TxID, oid, rec.Class, h.Kind)
	rec.Slots()

	base := len(tx.fired)
	for i := range ph.entries {
		d := &ph.entries[i]
		t := d.t
		act := &rec.Trigs[t.slot]
		if !act.Active {
			continue
		}
		var bits uint32
		if d.used != 0 {
			if err := t.checkParams(act); err != nil {
				tx.fired = tx.fired[:base]
				return fmt.Errorf("engine: trigger %s mask: %w", t.Res.Name, err)
			}
			saved := tx.penv
			tx.penv = progHost{tx: tx, self: oid, rec: rec, cls: c}
			got, evals, falses, err := mask.EvalBits(d.progs, d.used, h.Params, act.Params, &tx.penv)
			tx.penv = saved
			ph.evals[i] += uint64(evals)
			ph.falses[i] += uint64(falses)
			bc.maskEvals += uint64(evals)
			if err != nil {
				tx.fired = tx.fired[:base]
				return fmt.Errorf("engine: trigger %s mask: %w", t.Res.Name, err)
			}
			bits = got
			tx.e.traceMask(h.TxID, oid, rec.Class, t.Res.Name, d.used, bits)
		}
		sym := c.Res.Alphabet.Symbol(ph.kindIx, bits)

		var prev, next int
		if t.View == schema.WholeView {
			key := instanceKey{oid, t.Res.Name}
			tx.e.wholeMu.Lock()
			cur, ok := tx.e.whole[key]
			if !ok {
				cur = t.Auto.Start()
			}
			prev = cur
			next = t.Auto.Next(cur, sym)
			tx.e.whole[key] = next
			if tx.e.shadowOracle {
				tx.e.wholeShadow[key] = append(tx.e.wholeShadow[key], sym)
			}
			tx.e.wholeMu.Unlock()
		} else {
			prev = act.State
			next = t.Auto.Next(act.State, sym)
			if next != prev || tx.e.shadowOracle {
				// First in-place mutation of a lazily accessed record:
				// register it (idempotent after the first call).
				// Self-looping instances skip this entirely — the record is
				// bit-identical after the step, so it needs no undo entry
				// and no comparison at commit.
				if tx.lazyAccess {
					if _, _, err := tx.tx.Access(oid); err != nil {
						tx.fired = tx.fired[:base]
						return err
					}
				}
				act.State = next
				if tx.e.shadowOracle {
					act.Shadow = append(act.Shadow, sym)
				}
			}
		}
		bc.steps++
		ph.steps[i]++
		accepted := t.Auto.Accept(next)
		if next != prev || accepted {
			if tx.e.provAppend(rec, t.slot, obs.ProvStep{
				TxID: h.TxID, AtNs: h.At.UnixNano(),
				KindID: ph.kindID, Bits: bits, Sym: sym,
				From: prev, To: next, Accepted: accepted,
			}) {
				bc.provSteps++
			}
		}
		tx.e.traceStep(h.TxID, oid, rec.Class, t.Res.Name, prev, next, accepted)
		if tx.e.shadowOracle {
			if err := tx.e.shadowCheck(oid, t, act, accepted); err != nil {
				tx.fired = tx.fired[:base]
				return err
			}
		}
		if accepted {
			tx.fired = append(tx.fired, t)
		}
	}

	fired := tx.fired[base:]
	if len(fired) == 0 {
		tx.fired = tx.fired[:base]
		return nil
	}
	if tx.lazyAccess {
		// The object may be pristine — an accepting self-loop — and the
		// deactivation below mutates it in place: register it first.
		if _, _, err := tx.tx.Access(oid); err != nil {
			tx.fired = tx.fired[:base]
			return err
		}
	}
	for _, t := range fired {
		if !t.Res.Perpetual {
			rec.Trigs[t.slot].Active = false
			tx.e.timers.disarm(oid, t)
		}
	}
	err := tx.fire(oid, rec, c, *h, c.kindNames[ph.kindIx], fired)
	tx.fired = tx.fired[:base]
	// Actions run arbitrary engine operations; drop the record cache
	// rather than reason about what they touched.
	tx.cachedRec = nil
	return err
}

// flushBatch publishes the batch's accumulated statistics — one atomic
// add per engine counter, one per (trigger, phase) metric stream — and
// the per-phase StageBatch flight summaries.
func (tx *Tx) flushBatch(c *Class, b *Batch, bc *batchCounters, atNs int64, txid uint64) {
	if bc.happenings != 0 {
		tx.e.stats.happenings.Add(bc.happenings)
		c.met.HappeningN(bc.happenings)
	}
	if bc.steps != 0 {
		tx.e.stats.steps.Add(bc.steps)
	}
	if bc.maskEvals != 0 {
		tx.e.stats.maskEvals.Add(bc.maskEvals)
	}
	if bc.provSteps != 0 {
		tx.e.stats.provSteps.Add(bc.provSteps)
	}
	for pi := range b.plan {
		bm := &b.plan[pi]
		for _, ph := range [...]*batchPhase{&bm.before, &bm.after} {
			if ph.count != 0 {
				tx.e.flightBatch(atNs, txid, c.nameID, ph.kindID, ph.count)
				ph.count = 0
			}
			for i := range ph.entries {
				if ph.steps[i] != 0 {
					ph.entries[i].t.met.StepN(ph.steps[i])
					ph.steps[i] = 0
				}
				if ph.evals[i] != 0 || ph.falses[i] != 0 {
					ph.entries[i].t.met.MaskEvalN(ph.evals[i], ph.falses[i])
					ph.evals[i], ph.falses[i] = 0, 0
				}
			}
		}
	}
}
