package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ode/internal/clock"
	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/store"
)

// timerTable schedules the time events of active trigger instances
// (§3.1 item 3). 'at' and 'every' specifications denote absolute
// instants, so every trigger that mentions one observes the same
// history point — and, because the instants are calendar-shared, every
// OBJECT of a class on the same canonical specification comes due at
// the same tick. The table exploits that with cohorts: one clock timer
// per (class, spec, phase) holding the member OID set, instead of one
// timer + closure per object. A due cohort delivers its tick in one
// system transaction per (class, tick) — see timerbatch.go. 'after' is
// relative to the arming of the trigger (§3.1: "scheduled to occur after
// a specified period ... when the trigger is armed"), so it stays per
// (object, trigger) and its happening is delivered only to that trigger.
//
// perObject selects the pre-cohort layout — one shared timer per
// (object, spec) delivering one system transaction per object — the
// semantic baseline the cohort path is equivalence-tested against.
type timerTable struct {
	e  *Engine
	mu sync.Mutex

	// cohorts maps (class, canonical spec key, phase) to the single
	// wheel entry shared by all member objects. byObj indexes each
	// object's memberships by spec key, so disarming touches only the
	// object's own cohorts. An object has at most one cohort per key
	// (re-arms are idempotent and keep the original schedule).
	cohorts map[cohortKey]*cohort
	byObj   map[store.OID]map[string]*cohort

	// oneShots holds the pending 'after' timers, indexed per object and
	// then per trigger so disarming an object (or instance) never scans
	// other objects' entries.
	oneShots map[store.OID]map[string][]clock.TimerID

	// Pre-cohort per-object layout, the cohorts' reference. Only this
	// package's tests set perObject, before the first activation.
	perObject  bool
	shared     map[sharedKey]*sharedTimer
	sharedRefs map[sharedKey]map[string]bool
}

type sharedKey struct {
	oid store.OID
	key string // canonical time-event key, e.g. "at time(HR=17)"
}

type sharedTimer struct {
	id       clock.TimerID
	canceled bool
}

// cohortKey identifies one shared schedule. For 'every' specs the
// phase is the arm instant modulo the period (in nanoseconds): two
// objects share a cohort only when their periodic instants coincide
// exactly, which keeps per-object firing times identical to the
// per-object layout. 'at' specs denote absolute calendar instants and
// are phase-free.
type cohortKey struct {
	class string
	key   string
	phase int64
}

// cohort is one shared wheel entry: the member set, the armed clock
// timer, and the meter of its deliveries (timerbatch.go).
type cohort struct {
	ck       cohortKey
	mode     evlang.TimeMode
	spec     clock.TimeSpec
	id       clock.TimerID
	canceled bool
	// members maps each member OID to the trigger names holding a
	// reference to the spec (all of them observe the same instant).
	members map[store.OID]map[string]bool
	// scratch is the due-snapshot buffer and m the delivery's meter,
	// both reused tick to tick and touched only by the clock-advancing
	// goroutine.
	scratch []store.OID
	m       meter
}

func newTimerTable(e *Engine) *timerTable {
	return &timerTable{
		e:          e,
		cohorts:    map[cohortKey]*cohort{},
		byObj:      map[store.OID]map[string]*cohort{},
		oneShots:   map[store.OID]map[string][]clock.TimerID{},
		shared:     map[sharedKey]*sharedTimer{},
		sharedRefs: map[sharedKey]map[string]bool{},
	}
}

// arm schedules every time event of a freshly activated trigger.
func (tt *timerTable) arm(oid store.OID, c *Class, t *Trigger) {
	for _, req := range t.Res.Timers {
		switch req.Mode {
		case evlang.TimeAfter:
			tt.armAfter(oid, t, req)
		default:
			tt.armShared(oid, c, t.Res.Name, req)
		}
	}
}

func (tt *timerTable) armAfter(oid store.OID, t *Trigger, req evlang.TimerReq) {
	id := tt.e.clk.After(req.Spec.Period(), func(time.Time) {
		tt.e.postTimer(oid, req.Key, t)
	})
	tt.mu.Lock()
	shots := tt.oneShots[oid]
	if shots == nil {
		shots = map[string][]clock.TimerID{}
		tt.oneShots[oid] = shots
	}
	shots[t.Res.Name] = append(shots[t.Res.Name], id)
	tt.mu.Unlock()
}

func (tt *timerTable) armShared(oid store.OID, c *Class, trig string, req evlang.TimerReq) {
	if tt.perObject {
		tt.armSharedLegacy(oid, trig, req)
		return
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if obj := tt.byObj[oid]; obj != nil {
		if co := obj[req.Key]; co != nil {
			// Already a member via another trigger or an earlier arm:
			// keep the original schedule (idempotent re-arm, exactly as
			// the per-object shared timer behaved).
			co.members[oid][trig] = true
			return
		}
	}
	ck := cohortKey{class: c.Schema.Name, key: req.Key}
	var period time.Duration
	if req.Mode == evlang.TimeEvery {
		period = req.Spec.Period()
		if period > 0 {
			ck.phase = tt.e.clk.Now().UnixNano() % int64(period)
		}
	}
	co := tt.cohorts[ck]
	if co == nil {
		co = &cohort{ck: ck, mode: req.Mode, spec: req.Spec, members: map[store.OID]map[string]bool{}}
		switch req.Mode {
		case evlang.TimeEvery:
			co.id = tt.e.clk.Every(period, func(time.Time) { tt.fireCohort(co) })
		case evlang.TimeAt:
			if !tt.scheduleCohortAtLocked(co) {
				// A fully-dated spec in the past never fires again.
				return
			}
		}
		tt.cohorts[ck] = co
	}
	mem := co.members[oid]
	if mem == nil {
		mem = map[string]bool{}
		co.members[oid] = mem
	}
	mem[trig] = true
	obj := tt.byObj[oid]
	if obj == nil {
		obj = map[string]*cohort{}
		tt.byObj[oid] = obj
	}
	obj[req.Key] = co
}

// scheduleCohortAtLocked arms the next calendar match of an 'at'
// cohort; the callback re-arms after delivering, which is how 'at'
// specifications with omitted high-order fields recur. Called with
// tt.mu held; reports false when the spec never matches again.
func (tt *timerTable) scheduleCohortAtLocked(co *cohort) bool {
	next, ok := co.spec.NextMatch(tt.e.clk.Now())
	if !ok {
		return false
	}
	co.id = tt.e.clk.At(next, func(time.Time) {
		tt.fireCohort(co)
		tt.mu.Lock()
		if !co.canceled && !tt.scheduleCohortAtLocked(co) {
			tt.removeCohortLocked(co)
		}
		tt.mu.Unlock()
	})
	return true
}

// removeCohortLocked drops a cohort and every membership reference to
// it. Called with tt.mu held.
func (tt *timerTable) removeCohortLocked(co *cohort) {
	co.canceled = true
	for oid := range co.members {
		if obj := tt.byObj[oid]; obj != nil {
			delete(obj, co.ck.key)
			if len(obj) == 0 {
				delete(tt.byObj, oid)
			}
		}
	}
	delete(tt.cohorts, co.ck)
}

// fireCohort snapshots the due members and delivers the tick
// (timerbatch.go). Members are delivered in ascending OID order — the
// deterministic order the cohort-vs-per-object equivalence proof pins.
func (tt *timerTable) fireCohort(co *cohort) {
	tt.mu.Lock()
	if co.canceled || len(co.members) == 0 {
		tt.mu.Unlock()
		return
	}
	co.scratch = co.scratch[:0]
	for oid := range co.members {
		co.scratch = append(co.scratch, oid)
	}
	oids := co.scratch
	tt.mu.Unlock()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	tt.e.deliverCohort(co, oids)
}

// armSharedLegacy is the pre-cohort layout: one shared timer per
// (object, spec), one system transaction per delivery.
func (tt *timerTable) armSharedLegacy(oid store.OID, trig string, req evlang.TimerReq) {
	sk := sharedKey{oid, req.Key}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	refs := tt.sharedRefs[sk]
	if refs == nil {
		refs = map[string]bool{}
		tt.sharedRefs[sk] = refs
	}
	refs[trig] = true
	if _, running := tt.shared[sk]; running {
		return
	}
	st := &sharedTimer{}
	tt.shared[sk] = st
	switch req.Mode {
	case evlang.TimeEvery:
		st.id = tt.e.clk.Every(req.Spec.Period(), func(time.Time) {
			tt.mu.Lock()
			dead := st.canceled
			tt.mu.Unlock()
			if !dead {
				tt.e.postTimer(oid, req.Key, nil)
			}
		})
	case evlang.TimeAt:
		tt.scheduleAtLocked(sk, st, req)
	}
}

// scheduleAtLocked arms the next calendar match of a legacy per-object
// 'at' spec. Called with tt.mu held.
func (tt *timerTable) scheduleAtLocked(sk sharedKey, st *sharedTimer, req evlang.TimerReq) {
	next, ok := req.Spec.NextMatch(tt.e.clk.Now())
	if !ok {
		// A fully-dated spec in the past never fires again.
		delete(tt.shared, sk)
		delete(tt.sharedRefs, sk)
		return
	}
	st.id = tt.e.clk.At(next, func(time.Time) {
		tt.mu.Lock()
		dead := st.canceled
		tt.mu.Unlock()
		if dead {
			return
		}
		tt.e.postTimer(sk.oid, req.Key, nil)
		tt.mu.Lock()
		if !st.canceled {
			tt.scheduleAtLocked(sk, st, req)
		}
		tt.mu.Unlock()
	})
}

// disarm removes a trigger instance's interest in its timers,
// cancelling any timer no instance needs anymore.
func (tt *timerTable) disarm(oid store.OID, t *Trigger) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.cancelOneShotsLocked(oid, t.Res.Name)
	for _, req := range t.Res.Timers {
		if req.Mode == evlang.TimeAfter {
			continue
		}
		if tt.perObject {
			tt.releaseSharedLocked(oid, t.Res.Name, req.Key)
			continue
		}
		tt.leaveCohortLocked(oid, t.Res.Name, req.Key)
	}
}

func (tt *timerTable) cancelOneShotsLocked(oid store.OID, trig string) {
	shots := tt.oneShots[oid]
	if shots == nil {
		return
	}
	for _, id := range shots[trig] {
		tt.e.clk.Cancel(id)
	}
	delete(shots, trig)
	if len(shots) == 0 {
		delete(tt.oneShots, oid)
	}
}

func (tt *timerTable) leaveCohortLocked(oid store.OID, trig, key string) {
	obj := tt.byObj[oid]
	co := obj[key]
	if co == nil {
		return
	}
	mem := co.members[oid]
	delete(mem, trig)
	if len(mem) > 0 {
		return
	}
	delete(co.members, oid)
	delete(obj, key)
	if len(obj) == 0 {
		delete(tt.byObj, oid)
	}
	if len(co.members) == 0 {
		co.canceled = true
		tt.e.clk.Cancel(co.id)
		delete(tt.cohorts, co.ck)
	}
}

func (tt *timerTable) releaseSharedLocked(oid store.OID, trig, key string) {
	sk := sharedKey{oid, key}
	refs := tt.sharedRefs[sk]
	delete(refs, trig)
	if len(refs) == 0 {
		if st, ok := tt.shared[sk]; ok {
			st.canceled = true
			tt.e.clk.Cancel(st.id)
			delete(tt.shared, sk)
		}
		delete(tt.sharedRefs, sk)
	}
}

// disarmObject cancels every timer attached to a deleted object. The
// per-OID indexes make this O(the object's own timers).
func (tt *timerTable) disarmObject(oid store.OID) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, ids := range tt.oneShots[oid] {
		for _, id := range ids {
			tt.e.clk.Cancel(id)
		}
	}
	delete(tt.oneShots, oid)
	for key, co := range tt.byObj[oid] {
		delete(co.members, oid)
		if len(co.members) == 0 {
			co.canceled = true
			tt.e.clk.Cancel(co.id)
			delete(tt.cohorts, co.ck)
		}
		_ = key
	}
	delete(tt.byObj, oid)
	if tt.perObject {
		for sk, st := range tt.shared {
			if sk.oid != oid {
				continue
			}
			st.canceled = true
			tt.e.clk.Cancel(st.id)
			delete(tt.shared, sk)
			delete(tt.sharedRefs, sk)
		}
	}
}

// postTimer delivers a time event to one object from a system
// transaction of its own (time events belong to no user transaction);
// a nil only delivers to every active trigger of the object. 'after'
// one-shots, the per-object layout and the re-delivery of a cohort
// tick that failed all come through here.
func (e *Engine) postTimer(oid store.OID, key string, only *Trigger) {
	if !e.st.Exists(oid) {
		return
	}
	onlyName := ""
	if only != nil {
		onlyName = only.Res.Name
	}
	e.stats.timerPosts.Add(1)
	e.traceTimer(oid, key, onlyName)
	sys := e.beginSystem()
	rec, err := sys.access(oid)
	if err == nil {
		_, err = sys.post(oid, rec, event.TimerKind(key), 0, only)
	}
	if err != nil {
		e.recordTimerErr(sys.doAbort(fmt.Errorf("engine: timer %q on object %d: %w", key, oid, err)))
		return
	}
	if err := sys.Commit(); err != nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q on object %d commit: %w", key, oid, err))
	}
}

// hasOneShots reports whether an 'after' timer is already pending for
// the instance (reconciliation must not double-arm: the delay is
// relative to the original arming).
func (tt *timerTable) hasOneShots(oid store.OID, trig string) bool {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return len(tt.oneShots[oid][trig]) > 0
}

// reconcile re-aligns the timer table with an object's (possibly just
// rolled back) activation record: triggers now inactive lose their
// timers, triggers now active regain their shared ones. Activation and
// deactivation arm and disarm eagerly inside the transaction, so an
// abort leaves the table out of step until this runs.
func (tt *timerTable) reconcile(oid store.OID, c *Class, rec *store.Record) {
	for _, t := range c.Triggers {
		if len(t.Res.Timers) == 0 {
			continue
		}
		if !rec.Trig(t.slot).Active {
			tt.disarm(oid, t)
			continue
		}
		// Re-arm shared timers (idempotent). 'after' one-shots cannot
		// be faithfully re-created — their delay was anchored at the
		// aborted activation — so only restore them if none pending.
		for _, req := range t.Res.Timers {
			if req.Mode == evlang.TimeAfter {
				if !tt.hasOneShots(oid, t.Res.Name) {
					tt.armAfter(oid, t, req)
				}
			} else {
				tt.armShared(oid, c, t.Res.Name, req)
			}
		}
	}
}

// sharedCount returns the number of live shared-schedule entries —
// cohorts, or per-object shared timers in the per-object layout.
func (tt *timerTable) sharedCount() int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return len(tt.cohorts) + len(tt.shared)
}

// TimerSchedule returns the shared ('at'/'every') timer schedule as
// sorted "oid key trigger" tuples — one per membership reference,
// identical in cohort and per-object layouts. The simulation harness
// compares it against the durable activation records after a crash/
// recovery/RearmTimers cycle, and equivalence tests compare the two
// layouts directly. 'after' one-shots are excluded: they are anchored
// at their original arming and are deliberately re-anchored by rearm.
func (e *Engine) TimerSchedule() []string {
	tt := e.timers
	tt.mu.Lock()
	defer tt.mu.Unlock()
	var out []string
	for _, co := range tt.cohorts {
		for oid, mem := range co.members {
			for trig := range mem {
				out = append(out, fmt.Sprintf("%d %s %s", oid, co.ck.key, trig))
			}
		}
	}
	for sk, refs := range tt.sharedRefs {
		for trig := range refs {
			out = append(out, fmt.Sprintf("%d %s %s", sk.oid, sk.key, trig))
		}
	}
	sort.Strings(out)
	return out
}
