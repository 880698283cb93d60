package engine

import (
	"fmt"
	"sync"

	"ode/internal/obs"
	"ode/internal/store"
)

// Firing provenance: each trigger instance that has recorded a
// state-changing (or accepting) automaton transition keeps a small ring
// of them, reset whenever the instance is re-activated. Non-accepting
// self-loops — the vast majority of steps under the masked non-firing
// workload — append nothing, so an instance that never moved has no ring
// at all, a ring's few dozen cells span a long happening history, and
// the hot path pays one branch. Explain walks the retained steps
// backward along matching from/to states to reconstruct the exact
// happening sequence that drove the automaton from its start state to
// acceptance.

// provShards fixes the table's shard count; objects hash by OID, the
// same unit the lock manager serializes on.
const provShards = 64

type provTable struct {
	shards [provShards]provShard
}

// provShard maps an object to its rings by trigger slot (nil where the
// instance has recorded nothing). Rings are not persisted; an entry
// lives until its object's deletion commits.
type provShard struct {
	mu sync.Mutex
	m  map[store.OID][]*obs.ProvRing
}

func (e *Engine) provShardOf(oid store.OID) *provShard {
	return &e.prov.shards[uint64(oid)%provShards]
}

// provAppend records one step of the instance in rec's slot and reports
// whether provenance is on. The caller holds the object's transaction
// lock and has sized rec to its layout. A state change costs one
// integer-keyed probe under the shard mutex plus the ring's own append;
// the instance's first recorded step allocates its ring (and the
// object's first, its table entry), and the ring's buffer then grows
// with its history (obs.ProvRing).
func (e *Engine) provAppend(rec *store.Record, slot int, s obs.ProvStep) bool {
	if e.provDepth < 0 {
		return false
	}
	sh := e.provShardOf(rec.OID)
	sh.mu.Lock()
	rings := sh.m[rec.OID]
	if slot >= len(rings) {
		rings = append(rings, make([]*obs.ProvRing, len(rec.Trigs)-len(rings))...)
		if sh.m == nil {
			sh.m = map[store.OID][]*obs.ProvRing{}
		}
		sh.m[rec.OID] = rings
	}
	r := rings[slot]
	if r == nil {
		r = obs.NewProvRing(e.provDepth)
		rings[slot] = r
		e.stats.provRings.Add(1)
	}
	sh.mu.Unlock()
	if grew := r.Append(s); grew != 0 {
		e.stats.provBytes.Add(int64(grew))
	}
	return true
}

// provLookup returns the ring of the instance in oid's slot, nil if it
// has recorded nothing.
func (e *Engine) provLookup(oid store.OID, slot int) *obs.ProvRing {
	sh := e.provShardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rings := sh.m[oid]; slot < len(rings) {
		return rings[slot]
	}
	return nil
}

// provDrop frees the provenance of an object that no longer exists.
func (e *Engine) provDrop(oid store.OID) {
	sh := e.provShardOf(oid)
	sh.mu.Lock()
	rings := sh.m[oid]
	delete(sh.m, oid)
	sh.mu.Unlock()
	for _, r := range rings {
		if r != nil {
			e.stats.provRings.Add(-1)
			e.stats.provBytes.Add(-int64(r.Bytes()))
		}
	}
}

// Explanation answers "why did (or didn't) trigger T fire on object
// O": the instance's current automaton state plus the retained
// provenance chain leading to it.
type Explanation struct {
	OID     store.OID `json:"oid"`
	Class   string    `json:"class"`
	Trigger string    `json:"trigger"`
	Active  bool      `json:"active"`
	// State is the instance's current automaton state, Start the
	// automaton's start state.
	State int `json:"state"`
	Start int `json:"start"`
	// Fired reports whether an accepting transition is retained; the
	// chain then ends at that firing.
	Fired bool `json:"fired"`
	// Complete reports whether the chain reaches back to the start
	// state — false when the ring has already evicted the oldest
	// contributing steps.
	Complete bool `json:"complete"`
	// Steps is the contributing happening sequence in order: each step
	// names the happening kind, the §5 mask valuation, the alphabet
	// symbol and the from→to state move.
	Steps []obs.ProvStep `json:"steps"`
	// TotalSteps counts every step the instance ever recorded,
	// including ones the ring has evicted.
	TotalSteps uint64 `json:"total_steps"`
}

// Explain reconstructs the provenance of trigger on oid. For a fired
// trigger the returned steps are the exact contributing happening
// sequence — the ordered transitions that moved the automaton from
// start to acceptance; for an unfired one they are the chain leading
// to the current state.
func (e *Engine) Explain(trigger string, oid store.OID) (*Explanation, error) {
	// Prefer the store's lock-free epoch view: Explain is typically
	// called from the /debug endpoint's goroutine, and the committed
	// version is an immutable image no in-flight transaction mutates. An
	// object that has never committed (created by a still-open
	// transaction) falls back to the live record.
	rec, ok := e.st.GetCommitted(oid)
	if !ok {
		var err error
		rec, err = e.st.Get(oid)
		if err != nil {
			return nil, err
		}
	}
	c, err := e.classOf(rec)
	if err != nil {
		return nil, err
	}
	t := c.Trigger(trigger)
	if t == nil {
		return nil, fmt.Errorf("engine: class %s has no trigger %q", rec.Class, trigger)
	}
	if e.provDepth < 0 {
		return nil, fmt.Errorf("engine: provenance capture is disabled (Options.ProvenanceDepth < 0)")
	}

	ex := &Explanation{
		OID:     oid,
		Class:   rec.Class,
		Trigger: trigger,
		Start:   t.Auto.Start(),
		State:   t.Auto.Start(),
	}
	if act := rec.Trig(t.slot); !act.IsZero() {
		ex.Active = act.Active
		ex.State = int(act.State)
	}

	r := e.provLookup(oid, t.slot)
	if r == nil {
		return ex, nil
	}
	steps := r.Steps()
	if n := len(steps); n > 0 {
		// The newest retained step is the newest recorded; reading the
		// count separately could straddle a concurrent append or reset.
		ex.TotalSteps = steps[n-1].Seq
	}
	for i := range steps {
		steps[i].Kind = e.names.Name(steps[i].KindID)
	}

	// Anchor the chain at the most recent accepting transition (the
	// firing being explained); an instance that never fired is explained
	// up to its latest step.
	anchor := len(steps) - 1
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].Accepted {
			anchor = i
			ex.Fired = true
			break
		}
	}
	if anchor < 0 {
		return ex, nil
	}

	// Walk backward along matching states: a step belongs to the chain
	// when it produced the state the next chain step consumed. Steps
	// that roll back and diverge (an aborted transaction's residue)
	// break the link and are excluded.
	lo := anchor
	for steps[lo].From != ex.Start && lo > 0 && steps[lo-1].To == steps[lo].From {
		lo--
	}
	ex.Steps = steps[lo : anchor+1]
	ex.Complete = len(ex.Steps) > 0 && ex.Steps[0].From == ex.Start
	return ex, nil
}
