// Package obs is the engine's observability layer: structured tracing
// of the §5 detection pipeline and per-trigger / per-class metrics.
//
// The paper's implementation model is a pipeline — a happening is
// posted to an object, each active trigger's logical-event masks are
// evaluated, the trigger's automaton takes one transition, and
// accepting automata fire their actions. Each pipeline stage emits one
// trace Event when tracing is enabled; when disabled the engine's emit
// helpers cost one atomic load and a branch (no allocation, no lock),
// so production posting pays nothing for the capability.
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Stage identifies which pipeline stage a trace Event instruments.
type Stage uint8

const (
	// StageHappening: a happening was posted to an object — the entry
	// point of the §5 pipeline ("whenever a basic event ... is posted
	// to an object").
	StageHappening Stage = iota + 1
	// StageMask: a trigger's logical-event masks were evaluated for a
	// happening; From holds the requested bit set, To the bits that
	// evaluated true ("we check the active triggers to determine
	// whether or not any logical events have occurred").
	StageMask
	// StageStep: a trigger automaton took one transition; From → To
	// are the old and new states, OK reports acceptance ("we move the
	// automaton to the next state").
	StageStep
	// StageFire: a trigger's action executed; DurNs is the action's
	// wall-clock latency, Err its error if any ("then we fire the
	// triggers").
	StageFire
	// StageTimer: a time event was delivered to an object by the timer
	// table (§3.1 item 3). Tracer only: the flight recorder sees a time
	// event as its StageHappening or as its cohort tick's StageBatch.
	StageTimer
	// StageTxBegin: a transaction began (Kind is "user" or "system").
	StageTxBegin
	// StageTxCommit: a transaction committed.
	StageTxCommit
	// StageTxAbort: a transaction aborted (rollback done).
	StageTxAbort
	// StageTcomplete: one round of the §6 before-tcomplete commit
	// fixpoint ran; From is the round number, OK whether any trigger
	// fired (another round follows while OK).
	StageTcomplete
	// StageBatch: a PostBatch run of happenings of one kind, a cohort
	// tick, or one class's share of a transaction lifecycle run (a
	// before-tcomplete round, an outcome phase's after tcommit or after
	// tabort, an abort's before tabort, each posted to the transaction's
	// accessed objects); From holds the happening count. The recorder
	// keeps one such summary per run or tick instead of a flight event
	// per happening: per-event stamping is the dominant cost of an
	// otherwise tight loop. A lifecycle happening that no trigger of its
	// class can be moved by is only counted: inside its run's summary, or
	// with no record where it is posted to one object by itself (after
	// create, before delete, a first access's after tbegin). Firings
	// within it still record individual StageFire events.
	StageBatch
	// StageEgress: a batch of firing records became visible on the
	// durable egress feed; From holds the first sequence number of the
	// batch, To the last.
	StageEgress
)

var stageNames = [...]string{
	StageHappening: "happening",
	StageMask:      "mask",
	StageStep:      "step",
	StageFire:      "fire",
	StageTimer:     "timer",
	StageTxBegin:   "tx-begin",
	StageTxCommit:  "tx-commit",
	StageTxAbort:   "tx-abort",
	StageTcomplete: "tcomplete",
	StageBatch:     "batch",
	StageEgress:    "egress",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalJSON renders the stage as its name, so /debug/trace output is
// self-describing.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a stage name back (clients of /debug/trace).
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", name)
}

// Event is one structured trace record. Field meaning varies slightly
// per stage (see the Stage constants); unused fields are zero.
type Event struct {
	// Seq is the tracer-assigned sequence number (monotone per tracer).
	Seq uint64 `json:"seq"`
	// At is the database's virtual time at emission.
	At time.Time `json:"at"`
	// Stage is the pipeline stage.
	Stage Stage `json:"stage"`
	// TxID is the posting transaction (0 for timer deliveries).
	TxID uint64 `json:"tx,omitempty"`
	// OID is the object involved, when any.
	OID uint64 `json:"oid,omitempty"`
	// Class and Trigger name the class / trigger involved, when any.
	Class   string `json:"class,omitempty"`
	Trigger string `json:"trigger,omitempty"`
	// Kind is the happening kind (StageHappening, StageTimer), or the
	// transaction flavor ("user"/"system") for tx stages.
	Kind string `json:"kind,omitempty"`
	// From and To are stage-specific integers: automaton states for
	// StageStep, mask bit sets for StageMask, the round number for
	// StageTcomplete.
	From int `json:"from"`
	To   int `json:"to"`
	// OK is the stage verdict: automaton acceptance, any-mask-true,
	// any-trigger-fired.
	OK bool `json:"ok"`
	// DurNs is the action latency in nanoseconds (StageFire).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Err carries the action error text (StageFire), if any.
	Err string `json:"err,omitempty"`
}

// Tracer consumes trace events. Implementations must be safe for
// concurrent use: the engine traces from every posting goroutine.
type Tracer interface {
	// Trace records one event. It must be cheap — it sits on the
	// engine's posting hot path whenever tracing is enabled.
	Trace(Event)
	// Events returns up to last recorded events in chronological
	// order (last <= 0 means all retained).
	Events(last int) []Event
}

// Ring is the standard Tracer: a fixed-capacity ring buffer that
// overwrites the oldest events. All methods are safe for concurrent
// use; Trace performs no allocation.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // events ever traced; next event's sequence number
}

// DefaultRingCapacity is used when NewRing is given a non-positive
// capacity.
const DefaultRingCapacity = 4096

// NewRing returns a ring tracer retaining the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Trace records ev, assigning its sequence number.
func (r *Ring) Trace(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq
	r.buf[int(r.seq%uint64(len(r.buf)))] = ev
	r.seq++
	r.mu.Unlock()
}

// Events returns the last events in chronological order.
func (r *Ring) Events(last int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.seq < n {
		n = r.seq
	}
	if last > 0 && uint64(last) < n {
		n = uint64(last)
	}
	out := make([]Event, 0, n)
	for i := r.seq - n; i < r.seq; i++ {
		out = append(out, r.buf[int(i%uint64(len(r.buf)))])
	}
	return out
}

// Len reports how many events are currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Total reports how many events were ever traced (including ones the
// ring has since overwritten).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
