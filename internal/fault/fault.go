// Package fault is the seeded fault-injection registry consulted by
// the storage and locking substrates at a small set of named points.
// The simulation harness (internal/sim) arms faults deterministically
// — "fail the Nth WAL sync", "tear the Nth batch write after K bytes"
// — and the substrate reports the injected error exactly as a real
// media or scheduling failure would surface.
//
// Design constraints:
//
//   - Disabled must be free. Every consult site guards with a plain
//     nil check on a *Registry field, so production paths (including
//     the zero-alloc posting hot path) pay one predictable branch and
//     no allocation when no registry is installed.
//
//   - Armed must be deterministic. Faults trigger by consult ordinal:
//     each point keeps a count of how many times it has been
//     consulted, and a plan fires when the count reaches its arming
//     ordinal. Two runs that make the same sequence of consults see
//     the same failures at the same operations.
//
//   - Injected errors must be distinguishable from real ones. Every
//     injected error is a *fault.Error wrapping ErrInjected, so
//     callers (the harness, tests) detect them with errors.Is and
//     recover the point/ordinal with errors.As, while code under test
//     cannot tell them apart from genuine failures.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Point names one instrumented location in the substrate.
type Point uint8

const (
	// WALWrite is consulted before the WAL appends a commit batch. An
	// armed plan with Tear >= 0 writes only the first Tear bytes of
	// the batch before failing — a torn batch write; Tear < 0 fails
	// before any byte reaches the file — a crash before commit.
	WALWrite Point = iota
	// WALSync is consulted after the batch bytes are written but
	// before the file is synced: the classic indeterminate commit —
	// the bytes may or may not survive a crash.
	WALSync
	// WALAfterSync is consulted after a successful sync: the commit
	// is durable, but the committer never learns it — a crash after
	// commit, before acknowledgment.
	WALAfterSync
	// LockAcquire is consulted at lock-manager entry and models a
	// lock-acquire timeout: the requesting transaction sees an error
	// and must abort, exactly like a deadlock victim.
	LockAcquire
	// EgressAppend is consulted in LogCommit before firing records are
	// stamped with sequence numbers: an armed plan fails the commit
	// cleanly, before any egress state changes — the committer must
	// abort and nothing reaches the feed.
	EgressAppend
	// EgressCursor is consulted when a delivery cursor persists its
	// position. Plain plans fail before any byte is written; ArmTear
	// plans write a torn prefix of the cursor frame, which the next
	// open must detect and discard.
	EgressCursor
	// EgressDeliver is consulted before the deliverer hands a firing
	// record to the sender, modeling a webhook endpoint failure: the
	// deliverer must retry with backoff and never advance its cursor
	// past the undelivered record.
	EgressDeliver

	// NumPoints bounds the Point space.
	NumPoints
)

var pointNames = [NumPoints]string{
	WALWrite:      "wal-write",
	WALSync:       "wal-sync",
	WALAfterSync:  "wal-after-sync",
	LockAcquire:   "lock-acquire",
	EgressAppend:  "egress-append",
	EgressCursor:  "egress-cursor",
	EgressDeliver: "egress-deliver",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("fault.Point(%d)", uint8(p))
}

// ErrInjected is the sentinel every injected failure wraps. Harness
// code uses errors.Is(err, fault.ErrInjected) to separate injected
// faults from genuine ones.
var ErrInjected = errors.New("injected fault")

// Error is the concrete injected failure: the point it fired at, the
// 1-based consult ordinal that triggered it, and the torn-write byte
// count (meaningful for WALWrite only, -1 otherwise).
type Error struct {
	Point   Point
	Consult uint64
	Tear    int
}

func (e *Error) Error() string {
	if e.Point == WALWrite && e.Tear >= 0 {
		return fmt.Sprintf("%s: %v at consult %d (torn after %d bytes)", e.Point, ErrInjected, e.Consult, e.Tear)
	}
	return fmt.Sprintf("%s: %v at consult %d", e.Point, ErrInjected, e.Consult)
}

// Is makes errors.Is(err, ErrInjected) true for every *Error.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// plan is one armed one-shot fault.
type plan struct {
	at   uint64 // fire at this 1-based consult ordinal
	tear int    // WALWrite: bytes to let through; -1 = none
}

// PointStats is the per-point slice of a Snapshot.
type PointStats struct {
	Point    string `json:"point"`
	Consults uint64 `json:"consults"`
	Injected uint64 `json:"injected"`
	Armed    int    `json:"armed"`
}

// Registry holds the armed plans and consult counters. The zero
// value is not used directly; call New. All methods are safe on a
// nil receiver (consults are free no-ops), so holders can keep an
// optional *Registry field and call through it unguarded — though
// hot paths still prefer an explicit nil check to skip the call.
type Registry struct {
	mu       sync.Mutex
	consults [NumPoints]uint64
	injected [NumPoints]uint64
	plans    [NumPoints][]plan
	failStop bool
	dead     bool // fail-stop: a commit-path fault has fired
}

// New returns an empty registry with nothing armed.
func New() *Registry { return &Registry{} }

// FailStop makes the registry model a process that dies at its first
// injected commit-path fault (WALWrite, WALSync, WALAfterSync,
// EgressAppend) — which is what those faults stand for: from then until
// Disarm every WALWrite consult fails before a byte is written, so
// nothing the doomed process still does (an abort's epilogue, a timer)
// reaches the log behind the crash point. The refusals are not counted
// as injected faults.
func (r *Registry) FailStop() {
	r.mu.Lock()
	r.failStop = true
	r.mu.Unlock()
}

// ArmAt arms a one-shot failure at point p, firing when the point is
// consulted for the at-th time counting from the registry's creation
// (1-based; at <= Consults(p) can never fire). Multiple plans may be
// armed at one point; each fires once at its own ordinal.
func (r *Registry) ArmAt(p Point, at uint64) {
	r.arm(p, plan{at: at, tear: -1})
}

// ArmTear arms a torn batch write at point p (normally WALWrite): at
// the at-th consult, only the first tear bytes of the batch are
// written before the failure surfaces. tear is clamped to the batch
// size at fire time.
func (r *Registry) ArmTear(p Point, at uint64, tear int) {
	if tear < 0 {
		tear = 0
	}
	r.arm(p, plan{at: at, tear: tear})
}

// ArmNext arms a one-shot failure at the next consult of p.
func (r *Registry) ArmNext(p Point) {
	r.mu.Lock()
	r.plans[p] = append(r.plans[p], plan{at: r.consults[p] + 1, tear: -1})
	r.mu.Unlock()
}

// ArmNextTear arms a torn write at the next consult of p.
func (r *Registry) ArmNextTear(p Point, tear int) {
	if tear < 0 {
		tear = 0
	}
	r.mu.Lock()
	r.plans[p] = append(r.plans[p], plan{at: r.consults[p] + 1, tear: tear})
	r.mu.Unlock()
}

func (r *Registry) arm(p Point, pl plan) {
	r.mu.Lock()
	r.plans[p] = append(r.plans[p], pl)
	r.mu.Unlock()
}

// Check is the plain consult: it advances p's consult counter and
// returns an injected error if a plan fires at this ordinal, nil
// otherwise. Safe (and free) on a nil receiver.
func (r *Registry) Check(p Point) error {
	_, err := r.CheckTear(p, 0)
	return err
}

// CheckTear is the consult for sites with torn-write semantics: on a
// firing plan armed with ArmTear it returns (bytes-to-write, error)
// with 0 <= bytes <= size; on a plain plan it returns (-1, error)
// meaning write nothing. With no firing plan it returns (size, nil).
func (r *Registry) CheckTear(p Point, size int) (int, error) {
	if r == nil {
		return size, nil
	}
	r.mu.Lock()
	r.consults[p]++
	ord := r.consults[p]
	var fired *plan
	plans := r.plans[p]
	for i := range plans {
		if plans[i].at == ord {
			fired = &plans[i]
			// Remove the fired plan; order among the survivors is
			// irrelevant (they fire by ordinal, not position).
			plans[i] = plans[len(plans)-1]
			r.plans[p] = plans[:len(plans)-1]
			break
		}
	}
	if fired == nil {
		dead := r.dead && p == WALWrite
		r.mu.Unlock()
		if dead {
			return -1, &Error{Point: p, Consult: ord, Tear: -1}
		}
		return size, nil
	}
	r.injected[p]++
	if r.failStop && (p <= WALAfterSync || p == EgressAppend) {
		r.dead = true
	}
	r.mu.Unlock()
	tear := fired.tear
	if tear > size {
		tear = size
	}
	return tear, &Error{Point: p, Consult: ord, Tear: tear}
}

// Consults returns how many times p has been consulted.
func (r *Registry) Consults(p Point) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consults[p]
}

// Injected returns the total number of faults fired across all
// points.
func (r *Registry) Injected() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, v := range r.injected {
		n += v
	}
	return n
}

// Armed returns the number of plans still waiting to fire.
func (r *Registry) Armed() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ps := range r.plans {
		n += len(ps)
	}
	return n
}

// Snapshot returns per-point counters for introspection (the
// /debug/faults endpoint). Safe on a nil receiver (returns nil).
func (r *Registry) Snapshot() []PointStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PointStats, NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		out[p] = PointStats{
			Point:    p.String(),
			Consults: r.consults[p],
			Injected: r.injected[p],
			Armed:    len(r.plans[p]),
		}
	}
	return out
}

// ArmedAt returns the consult ordinals of the plans still pending at
// point p, so a harness can preserve selected plans across a Disarm.
// Safe on a nil receiver (returns nil).
func (r *Registry) ArmedAt(p Point) []uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, 0, len(r.plans[p]))
	for _, pl := range r.plans[p] {
		out = append(out, pl.at)
	}
	return out
}

// Disarm removes every pending plan without touching the counters,
// so a harness can abandon scheduled faults after a crash cycle; under
// FailStop it is also the restart of the process.
func (r *Registry) Disarm() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for p := range r.plans {
		r.plans[p] = nil
	}
	r.dead = false
	r.mu.Unlock()
}
