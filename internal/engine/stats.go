package engine

import (
	"sync/atomic"

	"ode/internal/compile"
)

// Stats are engine counters and gauges, readable at any time with
// Engine.Stats. Counters are cumulative and monotone except for being
// zero at startup. The gauges — TimersPending, TimerCohorts,
// TimerMembers, ProvObjects, ProvBytes and the Automaton* fields —
// describe current state and may fall. Cross-field arithmetic (e.g.
// commits+aborts vs begun) is only consistent when the engine is
// quiescent.
type Stats struct {
	// TxBegun counts user transactions started (system transactions
	// excluded).
	TxBegun uint64
	// TxCommitted and TxAborted count user transaction outcomes.
	TxCommitted uint64
	TxAborted   uint64
	// SystemTx counts system transactions: the outcome phases posting
	// after tcommit and after tabort, and timer deliveries.
	SystemTx uint64
	// Happenings counts events posted to objects (every history point,
	// all objects).
	Happenings uint64
	// Steps counts individual trigger-automaton transitions.
	Steps uint64
	// MaskEvals counts logical-event mask evaluations.
	MaskEvals uint64
	// Firings counts trigger actions executed.
	Firings uint64
	// TimerPosts counts time-event deliveries.
	TimerPosts uint64
	// TimerErrsDropped counts timer-delivery errors evicted from the
	// bounded TimerErrors ring.
	TimerErrsDropped uint64
	// TimersPending gauges the timers currently armed on the virtual
	// clock ('after' one-shots plus one per cohort). TimerCohorts gauges
	// the live cohorts — one per object and spec in the per-object
	// reference (timerTable.perObject) — and TimerMembers the memberships
	// in them, one per (object, cohort) whatever the number of the
	// object's triggers on the spec. Like the Automaton*
	// fields below these describe current state, not cumulative activity.
	TimersPending uint64
	TimerCohorts  uint64
	TimerMembers  uint64
	// TcompleteRounds counts rounds of the §6 before-tcomplete commit
	// fixpoint (every commit of a user transaction runs at least one;
	// triggers firing on tcomplete add more, up to the divergence
	// bound).
	TcompleteRounds uint64
	// FaultsInjected counts failures fired by the fault-injection
	// registry (zero unless Options.Faults is installed — i.e. under
	// the simulation harness).
	FaultsInjected uint64
	// FlightEvents counts events captured by the always-on flight
	// recorder (including ones its ring has overwritten).
	FlightEvents uint64
	// ProvenanceSteps counts transitions appended to the firing-provenance
	// journals — state-changing or accepting steps only; non-accepting
	// self-loops are skipped by design.
	ProvenanceSteps uint64
	// ProvObjects gauges the live objects with a provenance head — those
	// that have recorded at least one step — and ProvBytes the journals'
	// resident bytes, at most Options.ProvenanceBytes: what firing
	// provenance costs right now.
	ProvObjects uint64
	ProvBytes   uint64
	// EgressAppended counts firing records made durable on the egress
	// feed since open (including records recovered from disk).
	// EgressSeq is the feed head — the highest firing sequence number
	// visible to consumers, monotone like a counter.
	EgressAppended uint64
	EgressSeq      uint64

	// AutomatonTriggers counts registered triggers stepping a compact
	// table; AutomatonTables counts the distinct hash-consed tables they
	// share in this engine, and AutomatonTableBytes is the resident
	// footprint of those tables. Unlike the counters above these
	// describe current registrations, not cumulative activity.
	AutomatonTriggers   uint64
	AutomatonTables     uint64
	AutomatonTableBytes uint64
	// CompileCacheHits and CompileCacheMisses snapshot the process-wide
	// hash-cons compile cache (shared by every engine in the process,
	// not just this one).
	CompileCacheHits   uint64
	CompileCacheMisses uint64
}

// statCounters is the engine-internal atomic mirror of Stats.
type statCounters struct {
	txBegun, txCommitted, txAborted, systemTx atomic.Uint64
	happenings, steps, maskEvals, firings     atomic.Uint64
	timerPosts, tcompleteRounds               atomic.Uint64
	provSteps, timerErrsDropped               atomic.Uint64
}

// Stats returns a snapshot of the cumulative counters.
//
// Snapshot guarantee: each field is read atomically, but the snapshot
// as a whole is not — fields are loaded one by one, so concurrent
// postings can make cross-field arithmetic (Firings vs Steps, commits
// vs begun) off by the operations in flight during the call. Each
// individual field is exact, and the whole snapshot is exact when the
// engine is quiescent. Benchmarks and monitors that want differences
// over an interval should snapshot twice and use Delta (or
// StatsDelta), which subtracts field-wise and therefore inherits the
// same per-field exactness.
func (e *Engine) Stats() Stats {
	cs := compile.AutomatonCacheStats()
	cohorts, members := e.timers.sharedCount()
	provObjects, provBytes := e.prov.gauges()
	autoTriggers, autoTables, autoBytes := e.reg.Load().automata()
	return Stats{
		AutomatonTriggers:   autoTriggers,
		AutomatonTables:     autoTables,
		AutomatonTableBytes: autoBytes,
		CompileCacheHits:    cs.Hits,
		CompileCacheMisses:  cs.Misses,
		TxBegun:             e.stats.txBegun.Load(),
		TxCommitted:         e.stats.txCommitted.Load(),
		TxAborted:           e.stats.txAborted.Load(),
		SystemTx:            e.stats.systemTx.Load(),
		Happenings:          e.stats.happenings.Load(),
		Steps:               e.stats.steps.Load(),
		MaskEvals:           e.stats.maskEvals.Load(),
		Firings:             e.stats.firings.Load(),
		TimerPosts:          e.stats.timerPosts.Load(),
		TimerErrsDropped:    e.stats.timerErrsDropped.Load(),
		TimersPending:       uint64(e.clk.Pending()),
		TimerCohorts:        uint64(cohorts),
		TimerMembers:        uint64(members),
		TcompleteRounds:     e.stats.tcompleteRounds.Load(),
		FaultsInjected:      e.faults.Injected(),
		FlightEvents:        e.flight.Total(),
		ProvenanceSteps:     e.stats.provSteps.Load(),
		ProvObjects:         provObjects,
		ProvBytes:           provBytes,
		EgressAppended:      e.st.FiringsAppended(),
		EgressSeq:           e.st.FiringSeq(),
	}
}

// Delta returns the activity between two snapshots taken around a
// measured interval: every counter of the result is s - prev, the exact
// number of operations counted between the two per-field load instants,
// and every gauge is s's current value.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.TxBegun -= prev.TxBegun
	d.TxCommitted -= prev.TxCommitted
	d.TxAborted -= prev.TxAborted
	d.SystemTx -= prev.SystemTx
	d.Happenings -= prev.Happenings
	d.Steps -= prev.Steps
	d.MaskEvals -= prev.MaskEvals
	d.Firings -= prev.Firings
	d.TimerPosts -= prev.TimerPosts
	d.TimerErrsDropped -= prev.TimerErrsDropped
	d.TcompleteRounds -= prev.TcompleteRounds
	d.FaultsInjected -= prev.FaultsInjected
	d.FlightEvents -= prev.FlightEvents
	d.ProvenanceSteps -= prev.ProvenanceSteps
	d.EgressAppended -= prev.EgressAppended
	d.EgressSeq -= prev.EgressSeq
	d.CompileCacheHits -= prev.CompileCacheHits
	d.CompileCacheMisses -= prev.CompileCacheMisses
	return d
}

// StatsDelta is Delta as a free function: cur.Delta(prev).
func StatsDelta(cur, prev Stats) Stats { return cur.Delta(prev) }
