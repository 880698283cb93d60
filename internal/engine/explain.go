package engine

import (
	"fmt"
	"sync"

	"ode/internal/obs"
	"ode/internal/store"
)

// Firing provenance: each provenance shard keeps one bounded journal
// (obs.ProvJournal) of the state-changing (or accepting) automaton
// transitions of its objects, with one head per object that has moved
// and a reset marker wherever an instance was re-activated.
// Non-accepting self-loops — the vast majority of steps under the
// masked non-firing workload — append nothing, so an object that never
// moved has no head, the journal spans a long happening history, and
// the hot path pays one branch. Explain walks the retained steps
// backward along matching from/to states to reconstruct the exact
// happening sequence that drove the automaton from its start state to
// acceptance.

// provShardBits fixes the table's shard count at 64.
const provShardBits = 6

type provTable struct {
	shards [1 << provShardBits]provShard
	off    bool // provenance capture disabled
}

// provShard is one journal and the mutex that serializes it. Journals
// are not persisted; a head lives until its object's deletion commits.
type provShard struct {
	mu sync.Mutex
	j  *obs.ProvJournal
}

// init gives each shard 1/64 of the engine's bound (0: the default; at
// least one cell a shard) or, for a negative bound, turns capture off.
func (p *provTable) init(bytes int) {
	if p.off = bytes < 0; p.off {
		return
	}
	if bytes == 0 {
		bytes = obs.DefaultProvenanceBytes
	}
	for i := range p.shards {
		p.shards[i].j = obs.NewProvJournal(bytes >> provShardBits)
	}
}

// provShardOf picks oid's shard by a multiplicative hash: partitions
// allocate OIDs with a stride, and a plain residue would leave all but
// 1/stride of the shards empty.
func (e *Engine) provShardOf(oid store.OID) *provShard {
	return &e.prov.shards[uint64(oid)*0x9E3779B97F4A7C15>>(64-provShardBits)]
}

// provAppend records one step of oid's instance in slot and reports
// whether provenance is on. The caller holds the object's transaction
// lock. A state change costs two integer-keyed map operations under the
// shard mutex and one cell write.
func (e *Engine) provAppend(oid store.OID, slot int, s obs.ProvStep) bool {
	if e.prov.off {
		return false
	}
	sh := e.provShardOf(oid)
	sh.mu.Lock()
	sh.j.Append(uint64(oid), slot, s)
	sh.mu.Unlock()
	return true
}

// provReset marks the restart of oid's instance in slot, and provDrop
// forgets the provenance of an object that no longer exists.
func (e *Engine) provReset(oid store.OID, slot int) {
	if !e.prov.off {
		sh := e.provShardOf(oid)
		sh.mu.Lock()
		sh.j.Reset(uint64(oid), slot)
		sh.mu.Unlock()
	}
}

func (e *Engine) provDrop(oid store.OID) {
	if !e.prov.off {
		sh := e.provShardOf(oid)
		sh.mu.Lock()
		sh.j.Drop(uint64(oid))
		sh.mu.Unlock()
	}
}

// gauges sums the objects with a head and the resident bytes over
// the journals.
func (p *provTable) gauges() (objects, bytes uint64) {
	for i := range p.shards {
		if sh := &p.shards[i]; sh.j != nil {
			sh.mu.Lock()
			objects, bytes = objects+uint64(sh.j.Objects()), bytes+uint64(sh.j.Bytes())
			sh.mu.Unlock()
		}
	}
	return objects, bytes
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
	// state.
	Complete bool `json:"complete"`
	// Truncated reports that the journal has overwritten the oldest
	// steps of the instance's history since its activation: Steps, Seq
	// and TotalSteps then begin at the journal's tail.
	Truncated bool `json:"truncated"`
	// Steps is the contributing happening sequence in order: each step
	// names the happening kind, the §5 mask valuation, the alphabet
	// symbol and the from→to state move.
	Steps []obs.ProvStep `json:"steps"`
	// TotalSteps counts the steps the instance recorded since its
	// activation, or since the journal's tail when Truncated.
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
	if e.prov.off {
		return nil, fmt.Errorf("engine: provenance capture is disabled (Options.ProvenanceBytes < 0)")
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

	sh := e.provShardOf(oid)
	sh.mu.Lock()
	steps, cut := sh.j.Walk(uint64(oid), t.slot)
	sh.mu.Unlock()
	ex.Truncated = cut
	if n := len(steps); n > 0 {
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
