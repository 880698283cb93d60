// Package clock provides the time substrate for Ode time events
// (paper §3.1 item 3):
//
//	at    time-specification
//	every time-period
//	after time-period
//
// A virtual clock makes time-event behaviour deterministic: tests and
// examples advance it explicitly, and every due timer fires in
// timestamp order during the advance. The paper's footnote 1
// observation — that timed triggers are subsumed by composite events —
// is exercised by posting timer firings as ordinary logical events.
//
// The timer queue is a hierarchical timing wheel (hashed wheels with
// cascading, à la Varghese & Lauck): arm and cancel are O(1), and an
// Advance jumps directly between occupied ticks instead of walking the
// calendar, so a 100k-timer heartbeat storm costs one slot visit per
// tick rather than 100k heap rebalances.
package clock

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Clock is the engine's view of time.
type Clock interface {
	Now() time.Time
}

// TimerID identifies a scheduled timer.
type TimerID uint64

const (
	// tickDur is the wheel granularity. Timers keep their full
	// nanosecond-precision due time; the wheel only buckets them, and
	// same-tick timers are ordered by (at, id) when they come due.
	tickDur   = time.Millisecond
	wheelBits = 6
	wheelSize = 1 << wheelBits // 64 slots per level
	wheelMask = wheelSize - 1
	// numLevels levels of 64 slots cover deltas up to 64^7 ticks
	// (~139 years of milliseconds); anything further sits in the
	// overflow list until the cursor gets near.
	numLevels = 7
)

type timer struct {
	id     TimerID
	at     time.Time
	tick   int64         // tickOf(at), cached
	period time.Duration // 0 → one-shot
	fn     func(time.Time)
	dead   bool // lazily cancelled; purged on slot visit
}

// wheelLevel is one ring of the hierarchy. occupied is a bitmap of
// non-empty slots; minTick[s] is a lower bound on the earliest tick in
// slot s (exact on insert, possibly stale-low after a lazy cancel —
// staleness only costs a spurious slot visit, never a missed or
// reordered firing).
type wheelLevel struct {
	occupied uint64
	slots    [wheelSize][]*timer
	minTick  [wheelSize]int64
}

// Virtual is a manually advanced clock with a hierarchical
// timing-wheel timer queue.
type Virtual struct {
	mu      sync.Mutex
	start   time.Time
	now     time.Time
	curTick int64 // wheel cursor; all wheel entries have tick > curTick
	nextID  TimerID
	live    int // scheduled, non-cancelled timers

	levels      [numLevels]wheelLevel
	overflow    []*timer // delta beyond the wheel horizon
	overflowMin int64

	// due holds timers whose tick is at or behind the cursor — armed
	// in the past, or moved here by a slot visit. Sorted by (at, id)
	// from dueHead; popped from the front.
	due     []*timer
	dueHead int

	index map[TimerID]*timer
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start, now: start, index: map[TimerID]*timer{}}
}

// Now returns the current virtual time.
func (c *Virtual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// tickOf maps an absolute time to a wheel tick (floor division, so a
// time inside tick T has T ≤ tickOf < T+1 and tick order implies time
// order across distinct ticks).
func (c *Virtual) tickOf(t time.Time) int64 {
	d := t.Sub(c.start)
	tk := int64(d / tickDur)
	if d%tickDur < 0 {
		tk--
	}
	return tk
}

func timerLess(a, b *timer) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.id < b.id
}

// At schedules fn once at the absolute time at. A time in the past
// fires on the next Advance.
func (c *Virtual) At(at time.Time, fn func(time.Time)) TimerID {
	return c.schedule(at, 0, fn)
}

// After schedules fn once, d from now.
func (c *Virtual) After(d time.Duration, fn func(time.Time)) TimerID {
	c.mu.Lock()
	at := c.now.Add(d)
	c.mu.Unlock()
	return c.schedule(at, 0, fn)
}

// Every schedules fn every period, first firing one period from now.
// The period must be positive.
func (c *Virtual) Every(period time.Duration, fn func(time.Time)) TimerID {
	return c.EveryFrom(c.Now(), period, fn)
}

// EveryFrom schedules fn at each instant from + k·period (k ≥ 1) that
// is after now: the phase is from's, which must not be after now. The
// period must be positive.
func (c *Virtual) EveryFrom(from time.Time, period time.Duration, fn func(time.Time)) TimerID {
	if period <= 0 {
		panic("clock: non-positive period")
	}
	c.mu.Lock()
	at := from.Add(period * (c.now.Sub(from)/period + 1))
	c.mu.Unlock()
	return c.schedule(at, period, fn)
}

func (c *Virtual) schedule(at time.Time, period time.Duration, fn func(time.Time)) TimerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	t := &timer{id: c.nextID, at: at, tick: c.tickOf(at), period: period, fn: fn}
	c.index[t.id] = t
	c.live++
	if t.tick <= c.curTick {
		c.dueInsertLocked(t)
	} else {
		c.insertLocked(t)
	}
	return t.id
}

// insertLocked places a future timer (tick > curTick) into the wheel
// level matching its delta, or the overflow list beyond the horizon.
func (c *Virtual) insertLocked(t *timer) {
	delta := t.tick - c.curTick
	lvl := (bits.Len64(uint64(delta)) - 1) / wheelBits
	if lvl >= numLevels {
		if len(c.overflow) == 0 || t.tick < c.overflowMin {
			c.overflowMin = t.tick
		}
		c.overflow = append(c.overflow, t)
		return
	}
	slot := int(t.tick>>(wheelBits*lvl)) & wheelMask
	l := &c.levels[lvl]
	if l.occupied&(1<<slot) == 0 || t.tick < l.minTick[slot] {
		l.minTick[slot] = t.tick
	}
	l.occupied |= 1 << slot
	l.slots[slot] = append(l.slots[slot], t)
}

// dueInsertLocked inserts one timer into the sorted due queue.
func (c *Virtual) dueInsertLocked(t *timer) {
	q := c.due[c.dueHead:]
	i := sort.Search(len(q), func(i int) bool { return timerLess(t, q[i]) })
	c.due = append(c.due, nil)
	copy(c.due[c.dueHead+i+1:], c.due[c.dueHead+i:])
	c.due[c.dueHead+i] = t
}

// minWheelLocked finds the slot with the smallest (possibly stale-low)
// minTick across all levels and the overflow list. lvl == -1 denotes
// the overflow pseudo-slot.
func (c *Virtual) minWheelLocked() (wt int64, lvl, slot int, ok bool) {
	for li := range c.levels {
		l := &c.levels[li]
		occ := l.occupied
		for occ != 0 {
			s := bits.TrailingZeros64(occ)
			occ &= occ - 1
			if !ok || l.minTick[s] < wt {
				wt, lvl, slot, ok = l.minTick[s], li, s, true
			}
		}
	}
	if len(c.overflow) > 0 && (!ok || c.overflowMin < wt) {
		wt, lvl, slot, ok = c.overflowMin, -1, 0, true
	}
	return
}

// visitLocked cascades one slot: dead timers are purged, timers at or
// behind the cursor move to the due queue, the rest redistribute into
// lower levels. Called with curTick already advanced to the slot's
// minTick, which guarantees progress: the slot's minimum entry always
// leaves the wheel.
func (c *Virtual) visitLocked(lvl, slot int) {
	var list []*timer
	if lvl < 0 {
		list = c.overflow
		c.overflow = nil
	} else {
		l := &c.levels[lvl]
		list = l.slots[slot]
		l.slots[slot] = nil
		l.occupied &^= 1 << slot
	}
	moved := false
	for _, t := range list {
		if t.dead {
			continue
		}
		if t.tick <= c.curTick {
			c.due = append(c.due, t)
			moved = true
		} else {
			c.insertLocked(t)
		}
	}
	if moved {
		q := c.due[c.dueHead:]
		sort.Slice(q, func(i, j int) bool { return timerLess(q[i], q[j]) })
	}
}

// popDueLocked removes and returns the earliest (at, id) timer with
// at ≤ deadline, cascading wheel slots as the cursor reaches them, or
// nil when nothing else is due. Due-queue entries always order before
// wheel entries at strictly larger ticks, so the head comparison is a
// tick comparison; ties on the same tick drain the wheel slot into the
// due queue first so sub-tick (at, id) order is decided by the sort.
func (c *Virtual) popDueLocked(deadline time.Time, deadlineTick int64) *timer {
	for {
		for c.dueHead < len(c.due) && c.due[c.dueHead].dead {
			c.due[c.dueHead] = nil
			c.dueHead++
		}
		var dt *timer
		if c.dueHead < len(c.due) {
			dt = c.due[c.dueHead]
		}
		wt, lvl, slot, wok := c.minWheelLocked()
		if dt != nil && (!wok || dt.tick < wt) {
			if dt.at.After(deadline) {
				return nil
			}
			c.due[c.dueHead] = nil
			c.dueHead++
			if c.dueHead == len(c.due) {
				c.due = c.due[:0]
				c.dueHead = 0
			}
			return dt
		}
		if !wok || wt > deadlineTick {
			return nil
		}
		c.curTick = wt
		c.visitLocked(lvl, slot)
	}
}

// Cancel removes a pending timer; cancelling an unknown or already-
// fired one-shot timer is a no-op. The entry is marked dead and purged
// lazily when its slot is next visited, keeping Cancel O(1).
func (c *Virtual) Cancel(id TimerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.index[id]; ok {
		t.dead = true
		t.fn = nil
		c.live--
		delete(c.index, id)
	}
}

// Pending returns the number of scheduled timers.
func (c *Virtual) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// NextDue returns the due time of the earliest pending timer, or
// (zero, false) when none is scheduled. Deterministic drivers (the
// simulation harness) use it to advance exactly to the next firing
// instead of guessing a step size. This scans live entries so lazily
// cancelled timers never skew the answer.
func (c *Virtual) NextDue() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *timer
	for i := c.dueHead; i < len(c.due); i++ {
		if !c.due[i].dead {
			best = c.due[i] // due queue is sorted; first live is minimal
			break
		}
	}
	scan := func(list []*timer) {
		for _, t := range list {
			if !t.dead && (best == nil || timerLess(t, best)) {
				best = t
			}
		}
	}
	for li := range c.levels {
		l := &c.levels[li]
		occ := l.occupied
		for occ != 0 {
			s := bits.TrailingZeros64(occ)
			occ &= occ - 1
			scan(l.slots[s])
		}
	}
	scan(c.overflow)
	if best == nil {
		return time.Time{}, false
	}
	return best.at, true
}

// Advance moves the clock forward by d, firing every timer that
// becomes due, in timestamp order (ties in registration order).
// Periodic timers fire once per elapsed period. Callbacks run without
// the clock lock held, so they may schedule or cancel timers; timers
// they schedule within the advanced window also fire.
func (c *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	c.mu.Lock()
	deadline := c.now.Add(d)
	deadlineTick := c.tickOf(deadline)
	for {
		t := c.popDueLocked(deadline, deadlineTick)
		if t == nil {
			break
		}
		if t.at.After(c.now) {
			c.now = t.at
		}
		if tk := c.tickOf(c.now); tk > c.curTick {
			c.curTick = tk
		}
		fireAt := c.now
		if t.period > 0 {
			t.at = t.at.Add(t.period)
			t.tick = c.tickOf(t.at)
			if t.tick <= c.curTick {
				c.dueInsertLocked(t)
			} else {
				c.insertLocked(t)
			}
		} else {
			delete(c.index, t.id)
			c.live--
		}
		fn := t.fn // Cancel clears it under the lock
		c.mu.Unlock()
		fn(fireAt)
		c.mu.Lock()
	}
	if deadline.After(c.now) {
		c.now = deadline
	}
	if deadlineTick > c.curTick {
		c.curTick = deadlineTick
	}
	c.mu.Unlock()
}

// AdvanceTo moves the clock to the absolute time t (a no-op when t is
// not in the future).
func (c *Virtual) AdvanceTo(t time.Time) {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	if t.After(now) {
		c.Advance(t.Sub(now))
	}
}
