package engine

import (
	"fmt"

	"ode/internal/store"
	"ode/internal/value"
)

// Batch posting: a Tx.Call pays per-happening costs that only exist
// because each call arrives alone — an atomic metric update per step and
// per mask evaluation, a flight record per happening, a clock read and
// a method-name lookup per call. PostBatch amortizes them: a Batch is a
// columnar run of method calls against objects of one class, and
// posting it resolves each distinct method once to the class's call
// plan, then runs every entry through the same Tx.call as Tx.Call does,
// with meters that accumulate the counts in plain integers and flush
// them once per batch.
//
// Semantics are exactly those of calling tx.Call for each entry in
// order and discarding the results: identical happenings, firing
// order, provenance, traces, and error positions; execution stops at
// the first error. The equivalence is tested against randomized
// workloads run both ways with the §4 / §6 trace checker attached.

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

	// plan resolves each interned method against the engine/class pair
	// the batch last met, rebuilt when either changes or new methods
	// were interned. Reset keeps it.
	planE *Engine
	planC *Class
	plan  []batchCall
}

// batchCall is one interned method's class call plan (nil: the class
// has no such method — reported when the first entry using it executes,
// the position tx.Call would report it from) and the meters of its two
// phases.
type batchCall struct {
	*call
	before, after meter
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
	if b.planE != tx.e || b.planC != c || len(b.plan) != len(b.methods) {
		b.planE, b.planC = tx.e, c
		b.plan = make([]batchCall, len(b.methods))
		for i, name := range b.methods {
			b.plan[i].call = c.calls[name]
		}
	}

	// One timestamp per batch: the virtual clock only advances between
	// transactions, so every happening of this transaction already
	// shares it.
	now := tx.e.clk.Now()
	defer func() {
		for i := range b.plan {
			if bc := &b.plan[i]; bc.call != nil {
				tx.flush(c, bc.call.before, &bc.before, now.UnixNano())
				tx.flush(c, bc.call.after, &bc.after, now.UnixNano())
			}
		}
	}()
	for i, oid := range b.oids {
		// Access first, as tx.Call does: an entry that fails any check
		// below has still first-accessed its object.
		rec, err := tx.access(oid)
		if err != nil {
			return err
		}
		if rec.Class != b.class {
			return fmt.Errorf("engine: batch for class %s posted to object %d of class %s",
				b.class, oid, rec.Class)
		}
		bc := &b.plan[b.meth[i]]
		if bc.call == nil {
			return fmt.Errorf("engine: class %s has no method %q", b.class, b.methods[b.meth[i]])
		}
		if _, err := tx.call(c, bc.call, oid, rec, b.args[b.argOff[i]:b.argOff[i+1]], now, &bc.before, &bc.after); err != nil {
			return err
		}
	}
	return nil
}
