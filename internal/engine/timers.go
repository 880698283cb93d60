package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ode/internal/clock"
	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/store"
	"ode/internal/txn"
)

// timerTable schedules the time events of active trigger instances
// (§3.1 item 3). 'at' and 'every' specifications denote absolute
// instants, so every trigger that mentions one observes the same
// history point — and, because the instants are calendar-shared, every
// OBJECT of a class on the same canonical specification comes due at
// the same tick. The table exploits that with cohorts: one clock timer
// per (class, spec, phase) holding the member OIDs, instead of one
// timer + closure per object. A due cohort delivers its tick in one
// system transaction per (class, tick) — see timerbatch.go. 'after' is
// relative to the arming of the trigger (§3.1: "scheduled to occur after
// a specified period ... when the trigger is armed"), so it stays per
// (object, trigger) and its happening is delivered only to that trigger.
//
// The schedule follows commits: Activate, Deactivate, DeleteObject and a
// fired trigger's self-deactivation record a txn.Intent, which a rollback
// drops and a commit hands to applyTimers under the objects' locks — so
// the table changes only with commits, in their order per object.
//
// perObject selects the pre-cohort layout — one shared timer per
// (object, spec) delivering one system transaction per object — the
// semantic baseline the cohort path is equivalence-tested against.
type timerTable struct {
	e  *Engine
	mu sync.Mutex

	// cohorts maps (class, canonical spec key, phase) to the single
	// wheel entry shared by all member objects; byID numbers them (free:
	// numbers to reuse). An object has at most one cohort per spec key
	// (re-arms are idempotent and keep the original schedule): byObj[key]
	// maps it to its cohort's number (high 32 bits) and its position in
	// the cohort (low 32), whatever the number of phases.
	cohorts map[cohortKey]*cohort
	byID    []*cohort
	free    []uint32
	byObj   map[string]map[store.OID]uint64

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

// cohort is one shared wheel entry: the members, the armed clock
// timer, and the meter of its deliveries (timerbatch.go).
type cohort struct {
	ck       cohortKey
	ix       uint32 // its number in timerTable.byID
	spec     clock.TimeSpec
	id       clock.TimerID
	canceled bool
	// oids are the members, ascending but for those armed out of order
	// since the last tick (settle). bits holds each one's set of trigs,
	// the triggers referencing the spec, in words bytes; an empty set is
	// a member that left (gone counts them) until the next settle. Nothing
	// writes oids below its length — arms append, settle builds new
	// arrays — so a tick delivers from it while the table changes.
	oids        []store.OID
	bits        []uint8
	words, gone int
	trigs       []string
	// m is the delivery's meter, reused tick to tick and touched only by
	// the clock-advancing goroutine.
	m meter
}

// set is member i's trigger set.
func (co *cohort) set(i int) []uint8 { return co.bits[i*co.words : (i+1)*co.words] }

// bit returns trig's number in trigs, -1 if absent and not to add; adding
// one past a multiple of 8 widens every member's set by a byte.
func (co *cohort) bit(trig string, add bool) int {
	if i := slices.Index(co.trigs, trig); i >= 0 || !add {
		return i
	}
	if co.trigs = append(co.trigs, trig); len(co.trigs) > 8*co.words {
		wide := make([]uint8, len(co.oids)*(co.words+1))
		for i := range co.oids {
			copy(wide[i*(co.words+1):], co.set(i))
		}
		co.bits, co.words = wide, co.words+1
	}
	return len(co.trigs) - 1
}

func newTimerTable(e *Engine) *timerTable {
	return &timerTable{
		e:          e,
		cohorts:    map[cohortKey]*cohort{},
		byObj:      map[string]map[store.OID]uint64{},
		oneShots:   map[store.OID]map[string][]clock.TimerID{},
		shared:     map[sharedKey]*sharedTimer{},
		sharedRefs: map[sharedKey]map[string]bool{},
	}
}

// applyTimers is the transaction manager's commit function
// (txn.Manager.OnCommit): it applies a committed transaction's intents
// to the table, in the order they were recorded.
func (e *Engine) applyTimers(ins []txn.Intent) {
	for _, in := range ins {
		if in.Op == txn.Delete {
			e.timers.disarmObject(in.OID)
			continue
		}
		rec, err := e.st.Get(in.OID)
		if err != nil {
			continue // deleted later in the transaction: its Delete follows
		}
		c := e.Class(rec.Class) // registered: the intent's trigger resolved in it
		if t := c.Trigger(rec.TrigName(in.Slot)); in.Op == txn.Activate {
			e.timers.arm(in.OID, c, t, in.At)
		} else {
			e.timers.disarm(in.OID, t)
		}
	}
}

// arm schedules every time event of a trigger instance activated at
// the instant at. An 'after' one-shot comes due a period after at —
// at the next Advance if that has passed — and replaces any the
// instance has pending: re-activation restarts it.
func (tt *timerTable) arm(oid store.OID, c *Class, t *Trigger, at time.Time) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.cancelOneShotsLocked(oid, t.Res.Name)
	for _, req := range t.Res.Timers {
		switch {
		case req.Mode == evlang.TimeAfter:
			var id clock.TimerID
			id = tt.e.clk.At(at.Add(req.Spec.Period()), func(time.Time) {
				tt.shotDue(oid, t.Res.Name, &id)
				tt.e.postTimer(oid, req.Key, t)
			})
			shots := tt.oneShots[oid]
			if shots == nil {
				shots = map[string][]clock.TimerID{}
				tt.oneShots[oid] = shots
			}
			shots[t.Res.Name] = append(shots[t.Res.Name], id)
		case tt.perObject:
			tt.armSharedLegacyLocked(oid, t.Res.Name, req, at)
		default:
			tt.armSharedLocked(oid, c, t.Res.Name, req, at)
		}
	}
}

// armSharedLocked makes the object a member of its cohort for req.
// Called with tt.mu held.
func (tt *timerTable) armSharedLocked(oid store.OID, c *Class, trig string, req evlang.TimerReq, at time.Time) {
	// Already a member via another trigger or an earlier arm, the object
	// keeps the original schedule (idempotent re-arm, exactly as the
	// per-object shared timer behaved).
	pos, ok := tt.byObj[req.Key][oid]
	if !ok {
		co := tt.cohortLocked(c, req, at)
		if co == nil {
			return
		}
		if tt.byObj[req.Key] == nil {
			tt.byObj[req.Key] = map[store.OID]uint64{}
		}
		pos = uint64(co.ix)<<32 | uint64(len(co.oids))
		tt.byObj[req.Key][oid] = pos
		co.oids, co.bits = append(co.oids, oid), append(co.bits, make([]uint8, co.words)...)
	}
	co := tt.byID[pos>>32]
	b := co.bit(trig, true)
	co.set(int(uint32(pos)))[b/8] |= 1 << (b % 8)
}

// cohortLocked returns the cohort an object activated at the instant
// at joins for req, creating it — nil for a fully-dated spec in the
// past, which never fires again. Called with tt.mu held.
func (tt *timerTable) cohortLocked(c *Class, req evlang.TimerReq, at time.Time) *cohort {
	ck := cohortKey{class: c.Schema.Name, key: req.Key}
	var period time.Duration
	if req.Mode == evlang.TimeEvery {
		period = req.Spec.Period()
		if period > 0 {
			ck.phase = at.UnixNano() % int64(period)
		}
	}
	if co := tt.cohorts[ck]; co != nil {
		return co
	}
	co := &cohort{ck: ck, spec: req.Spec, words: 1}
	switch req.Mode {
	case evlang.TimeEvery:
		co.id = tt.e.clk.EveryFrom(at, period, func(time.Time) { tt.fireCohort(co) })
	case evlang.TimeAt:
		if !tt.scheduleCohortAtLocked(co) {
			return nil
		}
	}
	tt.cohorts[ck] = co
	if n := len(tt.free); n > 0 {
		co.ix, tt.free = tt.free[n-1], tt.free[:n-1]
	} else {
		co.ix, tt.byID = uint32(len(tt.byID)), append(tt.byID, nil)
	}
	tt.byID[co.ix] = co
	return co
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
			for _, oid := range co.oids { // the last one drops the cohort
				tt.dropLocked(oid, co.ck.key, "")
			}
		}
		tt.mu.Unlock()
	})
	return true
}

// dropLocked takes trig — every trigger, for "" — out of the object's
// set in its cohort for key, and the object out of the cohort once its
// set is empty; the cohort's last member takes the cohort and its clock
// timer with it. Called with tt.mu held.
func (tt *timerTable) dropLocked(oid store.OID, key, trig string) {
	at, ok := tt.byObj[key][oid]
	if !ok {
		return
	}
	co := tt.byID[at>>32]
	set := co.set(int(uint32(at)))
	if b := co.bit(trig, false); b >= 0 {
		set[b/8] &^= 1 << (b % 8)
	} else if trig == "" {
		clear(set)
	}
	if slices.Max(set) != 0 {
		return
	}
	delete(tt.byObj[key], oid)
	switch co.gone++; {
	case co.gone == len(co.oids):
		co.canceled = true
		tt.e.clk.Cancel(co.id)
		delete(tt.cohorts, co.ck)
		tt.byID[co.ix], tt.free = nil, append(tt.free, co.ix)
	case 2*co.gone > len(co.oids):
		tt.settle(co) // churn between ticks keeps the arrays ≤ 2× the members
	}
}

// settle drops the members that left and merges the ones armed out of
// order — those past the ascending run the list starts with — into it,
// moving their index positions along: O(members + late·log late), paid
// by the next tick instead of by every arm. Called with tt.mu held.
func (tt *timerTable) settle(co *cohort) {
	run, n := 1, len(co.oids)
	for run < n && co.oids[run-1] < co.oids[run] {
		run++
	}
	if run >= n && co.gone == 0 {
		return
	}
	late := make([]int, 0, n-run)
	for i := run; i < n; i++ {
		late = append(late, i)
	}
	slices.SortFunc(late, func(a, b int) int { return cmp.Compare(co.oids[a], co.oids[b]) })
	oids, bits := make([]store.OID, 0, n-co.gone), make([]uint8, 0, (n-co.gone)*co.words)
	for i, j := 0, 0; i < run || j < len(late); {
		k := i
		if i == run || j < len(late) && co.oids[late[j]] < co.oids[i] {
			k, j = late[j], j+1
		} else {
			i++
		}
		if set := co.set(k); slices.Max(set) != 0 {
			if k != len(oids) {
				tt.byObj[co.ck.key][co.oids[k]] = uint64(co.ix)<<32 | uint64(len(oids))
			}
			oids, bits = append(oids, co.oids[k]), append(bits, set...)
		}
	}
	co.oids, co.bits, co.gone = oids, bits, 0
}

// fireCohort settles the cohort and delivers the tick to its members
// as they are now (timerbatch.go), in ascending OID order — the
// deterministic order the cohort-vs-per-object equivalence proof pins.
func (tt *timerTable) fireCohort(co *cohort) {
	tt.mu.Lock()
	if co.canceled {
		tt.mu.Unlock()
		return
	}
	tt.settle(co)
	oids := co.oids[:len(co.oids):len(co.oids)]
	tt.mu.Unlock()
	tt.e.deliverCohort(co, oids)
}

// armSharedLegacyLocked is the pre-cohort layout: one shared timer per
// (object, spec), one system transaction per delivery. Called with tt.mu
// held.
func (tt *timerTable) armSharedLegacyLocked(oid store.OID, trig string, req evlang.TimerReq, at time.Time) {
	sk := sharedKey{oid, req.Key}
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
		st.id = tt.e.clk.EveryFrom(at, req.Spec.Period(), func(time.Time) {
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
		tt.dropLocked(oid, req.Key, t.Res.Name)
	}
}

// shotDue forgets a one-shot that came due, and any map that leaves
// empty: a perpetual trigger's firing records no deactivation to do it.
// It reads the id under tt.mu, which arm holds while it writes it: a
// deadline already past can come due in an Advance before arm returns.
func (tt *timerTable) shotDue(oid store.OID, trig string, id *clock.TimerID) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	shots := tt.oneShots[oid]
	if ids := slices.DeleteFunc(shots[trig], func(x clock.TimerID) bool { return x == *id }); len(ids) > 0 {
		shots[trig] = ids
		return
	}
	delete(shots, trig)
	if len(shots) == 0 {
		delete(tt.oneShots, oid)
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
	for trig := range tt.oneShots[oid] {
		tt.cancelOneShotsLocked(oid, trig)
	}
	for key := range tt.byObj {
		tt.dropLocked(oid, key, "")
	}
	for sk, refs := range tt.sharedRefs { // the per-object layout's
		if sk.oid == oid {
			clear(refs)
			tt.releaseSharedLocked(oid, "", sk.key)
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
	e.stats.timerPosts.Add(1)
	traceTimer(e.tracer(), e.clk.Now(), oid, key, only)
	sys := e.beginSystem()
	rec, err := sys.access(oid)
	var c *Class
	if err == nil {
		c, err = e.classOf(rec)
	}
	var ph *phase
	if err == nil {
		ph, err = c.phaseOf(event.TimerKind(key))
	}
	if err == nil {
		// TxID stays zero: time events belong to no user transaction.
		h := event.Happening{Kind: event.TimerKind(key), At: e.clk.Now()}
		_, err = sys.step(c, ph, oid, rec, &h, only, nil)
	}
	if err != nil {
		e.recordTimerErr(sys.doAbort(fmt.Errorf("engine: timer %q on object %d: %w", key, oid, err)))
		return
	}
	if err := sys.Commit(); err != nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q on object %d commit: %w", key, oid, err))
	}
}

// sharedCount returns the number of live shared-schedule entries —
// cohorts, or per-object shared timers in the per-object layout — and
// of memberships in them: (object, cohort) pairs, or those shared timers.
func (tt *timerTable) sharedCount() (entries, members int) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, idx := range tt.byObj {
		members += len(idx)
	}
	return len(tt.cohorts) + len(tt.shared), members + len(tt.shared)
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
		for i, oid := range co.oids {
			for b, trig := range co.trigs {
				if co.set(i)[b/8]&(1<<(b%8)) != 0 {
					out = append(out, fmt.Sprintf("%d %s %s", oid, co.ck.key, trig))
				}
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
