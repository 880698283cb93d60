package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestTimerBytesPerMember: a cohort member costs its OID, its trigger
// set and its index entry — no map of its own. 10 000 objects armed on
// one 'every' spec keep at most 48 bytes each in the timer table.
func TestTimerBytesPerMember(t *testing.T) {
	const n, budget = 10000, 48
	cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatal(err)
	}
	tick := c.Trigger("Tick")
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for oid := store.OID(1); oid <= n; oid++ {
		e.timers.arm(oid, c, tick, e.clk.Now())
	}
	per := float64(heap()-before) / n
	runtime.KeepAlive(e)
	t.Logf("%.1f bytes per cohort membership", per)
	if s := e.Stats(); s.TimerMembers != n || s.TimerCohorts != 1 {
		t.Fatalf("members=%d cohorts=%d, want %d and 1", s.TimerMembers, s.TimerCohorts, n)
	}
	if per > budget {
		t.Fatalf("a cohort membership keeps %.1f bytes, budget %d", per, budget)
	}
}

// wideTriggers are 65 triggers on one spec: past 64, and a member's
// trigger set widens a byte at a time to nine.
func wideTriggers() []schema.Trigger {
	var ts []schema.Trigger
	for i := 0; i < 65; i++ {
		ts = append(ts, schema.Trigger{Name: fmt.Sprintf("W%d", i), Perpetual: true, Event: "every time(M=10)"})
	}
	return ts
}

// timerChurnRun is what the order-and-churn script leaves behind.
type timerChurnRun struct {
	fires    map[store.OID][]string
	ticks    map[int64][]store.OID // Tick firings per instant, in delivery order
	prov     map[string][]string
	schedule []string
	stats    Stats
	errs     []error
}

// timerChurnScript arms a fleet in descending and in shuffled OID order,
// gives one spec 66 triggers, and churns the cohorts — deactivation and
// re-activation (members re-joining below the list's end), deletions
// and an aborted activation (intents dropped) — between ticks. Every advance
// is a whole number of periods, so no instant is shared by two specs.
func timerChurnScript(t *testing.T, perObject bool) *timerChurnRun {
	t.Helper()
	const n = 40
	triggers := append([]schema.Trigger{
		{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		{Name: "Daily", Perpetual: true, Event: "at time(HR=17, M=5)"},
	}, wideTriggers()...)
	rec := &recorder{}
	cls, impl := accountClass(rec, triggers...)
	run := &timerChurnRun{fires: map[store.OID][]string{}, ticks: map[int64][]store.OID{}, prov: map[string][]string{}}
	// The provenance bound holds every history whole: the two layouts
	// interleave a shard's objects differently, so where a journal cuts
	// a history may differ between them.
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC), ProvenanceBytes: 64 << 20})
	chk := attachChecker(e, 1<<17)
	for _, tr := range triggers {
		name := tr.Name
		impl.Actions[name] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%d/%s", ctx.Self, name))
			if name == "Tick" {
				at := e.Clock().Now().UnixNano()
				run.ticks[at] = append(run.ticks[at], ctx.Self)
			}
			return nil
		}
	}
	e.timers.perObject = perObject
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	oids := make([]store.OID, n)
	must(e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("account", nil)
			oids[i] = oid
			if err != nil {
				return err
			}
		}
		return nil
	}))
	activate := func(order []store.OID, trig string) {
		t.Helper()
		must(e.Transact(func(tx *Tx) error {
			for _, oid := range order {
				if err := tx.Activate(oid, trig); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	rng := rand.New(rand.NewSource(7))
	shuffled := func() []store.OID {
		s := slices.Clone(oids)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	descending := slices.Clone(oids)
	slices.Reverse(descending)
	activate(descending, "Tick")
	activate(shuffled()[:n/2], "Daily")
	for _, tr := range wideTriggers() {
		activate(shuffled()[:n/4], tr.Name)
	}
	e.Clock().Advance(30 * time.Minute)
	checkTrace(t, chk, e)

	// Members leave and re-join below the end of the list.
	must(e.Transact(func(tx *Tx) error {
		for i, oid := range oids {
			if i%3 == 0 {
				if err := tx.Deactivate(oid, "Tick"); err != nil {
					return err
				}
			}
		}
		return tx.DeleteObject(oids[11])
	}))
	e.Clock().Advance(20 * time.Minute)
	checkTrace(t, chk, e)
	var back []store.OID
	for _, oid := range shuffled() {
		if i := slices.Index(oids, oid); i%3 == 0 && i%2 == 0 {
			back = append(back, oid)
		}
	}
	activate(back, "Tick")

	// An aborted activation: its memberships are never taken.
	boom := errors.New("boom")
	if err := e.Transact(func(tx *Tx) error {
		for _, trig := range []string{"Tick", "Daily", "W64"} {
			if err := tx.Activate(oids[3], trig); err != nil {
				return err
			}
		}
		return boom
	}); err != boom {
		t.Fatalf("abort err = %v", err)
	}
	must(e.Transact(func(tx *Tx) error { return tx.DeleteObject(oids[0]) }))
	e.Clock().Advance(10 * time.Hour)
	checkTrace(t, chk, e)

	for _, f := range rec.list() {
		var oid store.OID
		var name string
		fmt.Sscanf(f, "%d/%s", &oid, &name)
		run.fires[oid] = append(run.fires[oid], name)
	}
	for _, oid := range oids {
		for _, tr := range triggers {
			ex, err := e.Explain(tr.Name, oid)
			if err != nil {
				continue
			}
			key := fmt.Sprintf("%d/%s", oid, tr.Name)
			for _, s := range ex.Steps {
				run.prov[key] = append(run.prov[key], fmt.Sprintf("seq=%d at=%d kind=%s bits=%d sym=%d %d->%d acc=%v",
					s.Seq, s.AtNs, s.Kind, s.Bits, s.Sym, s.From, s.To, s.Accepted))
			}
		}
	}
	run.schedule, run.stats, run.errs = e.TimerSchedule(), e.Stats(), e.TimerErrors()
	return run
}

// TestTimerCohortOrderAndChurn runs one script of out-of-order arming
// and membership churn under cohorts and the per-object reference: the
// same firings per object, provenance, schedule and counters, and every
// cohort tick visits its members in ascending OID order.
func TestTimerCohortOrderAndChurn(t *testing.T) {
	cohort, legacy := timerChurnScript(t, false), timerChurnScript(t, true)
	if len(cohort.errs) != 0 || len(legacy.errs) != 0 {
		t.Fatalf("timer errors: cohort=%v legacy=%v", cohort.errs, legacy.errs)
	}
	if fmt.Sprint(cohort.fires) != fmt.Sprint(legacy.fires) {
		t.Errorf("firings per object:\n cohort: %v\n legacy: %v", cohort.fires, legacy.fires)
	}
	if fmt.Sprint(cohort.prov) != fmt.Sprint(legacy.prov) {
		t.Errorf("provenance:\n cohort: %v\n legacy: %v", cohort.prov, legacy.prov)
	}
	if fmt.Sprint(cohort.schedule) != fmt.Sprint(legacy.schedule) || len(cohort.schedule) == 0 {
		t.Errorf("schedule:\n cohort: %v\n legacy: %v", cohort.schedule, legacy.schedule)
	}
	cs, ls := cohort.stats, legacy.stats
	if cs.Happenings != ls.Happenings || cs.Steps != ls.Steps || cs.Firings != ls.Firings ||
		cs.TimerPosts != ls.TimerPosts || cs.MaskEvals != ls.MaskEvals ||
		cs.ProvenanceSteps != ls.ProvenanceSteps || cs.TimerMembers != ls.TimerMembers {
		t.Errorf("stats diverge:\n cohort: %+v\n legacy: %+v", cs, ls)
	}
	var instants []int64
	for at := range cohort.ticks {
		instants = append(instants, at)
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })
	for _, at := range instants {
		if got := cohort.ticks[at]; !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Errorf("tick at %d visited %v, not in ascending OID order", at, got)
		}
	}
	if len(instants) < 60 {
		t.Fatalf("only %d tick instants", len(instants))
	}
}

// TestTimerCohortPhase: an 'every' cohort keeps the instant its members
// were armed at. A is armed at 08:00 and B three minutes later on the
// same spec; they occupy two cohorts, A fires at :10 and :20 and B at :13
// and :23 — with cohorts and with the perObject reference alike.
func TestTimerCohortPhase(t *testing.T) {
	for _, perObject := range []bool{false, true} {
		rec := &recorder{}
		cls, impl := accountClass(rec, schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"})
		e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
		impl.Actions["Tick"] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%d@%s", ctx.Self, e.Clock().Now().Format("15:04")))
			return nil
		}
		e.timers.perObject = perObject
		a := setup(t, e, cls, impl, "Tick")
		e.Clock().Advance(3 * time.Minute)
		var b store.OID
		if err := e.Transact(func(tx *Tx) (err error) {
			if b, err = tx.NewObject("account", nil); err != nil {
				return err
			}
			return tx.Activate(b, "Tick")
		}); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); s.TimerCohorts != 2 {
			t.Fatalf("perObject %v: %d cohorts, want 2", perObject, s.TimerCohorts)
		}
		e.Clock().Advance(22 * time.Minute)
		want := []string{fmt.Sprintf("%d@08:10", a), fmt.Sprintf("%d@08:13", b), fmt.Sprintf("%d@08:20", a), fmt.Sprintf("%d@08:23", b)}
		if got := rec.list(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("perObject %v: fired %v, want %v", perObject, got, want)
		}
	}
}

// TestTimerTickHoldsNoLockForSelfLoops: a tick holds the lock of a member
// that self-loops for that member's step only. Of 1 001 members only
// the one that fires is locked when the last step runs, none is after
// the tick, and a user transaction holding one member makes the tick
// wait on that member alone — the tick then steps it from the state the
// transaction committed.
func TestTimerTickHoldsNoLockForSelfLoops(t *testing.T) {
	const n = 1000
	rec := &recorder{}
	cls, impl := accountClass(rec, schema.Trigger{Name: "Rich", Perpetual: true, Event: "every time(M=10) && balance > 100"})
	oids := make([]store.OID, n+1)
	held := -1
	impl.Actions["Rich"] = func(ctx *ActionCtx) error {
		rec.add(fmt.Sprint(ctx.Self))
		if ctx.Self == oids[n] {
			held = 0
			for _, oid := range oids {
				if ctx.Tx.tx.Holds(oid) {
					held++
				}
			}
		}
		return nil
	}
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			balance := int64(0)
			if i == n {
				balance = 1000
			}
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(balance)})
			if err != nil {
				return err
			}
			oids[i] = oid
			if err := tx.Activate(oid, "Rich"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock().Advance(10 * time.Minute)
	if got := rec.list(); fmt.Sprint(got) != fmt.Sprint([]string{fmt.Sprint(oids[n])}) || held != 1 {
		t.Fatalf("tick fired %v and held %d member locks at its last step; want only %d fired, and its lock alone held", got, held, oids[n])
	}
	// within waits for fn, failing the test if it blocks: a lock the tick
	// kept would block it.
	within := func(what string, fn func(*Tx) error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- e.Transact(fn) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked on a lock", what)
		}
	}
	readAll := func(skip store.OID) func(*Tx) error {
		return func(tx *Tx) error {
			for _, oid := range oids {
				if oid != skip {
					if _, err := tx.Call(oid, "getBalance"); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	within("a transaction over every member after the tick", readAll(0))

	x := oids[n/2]
	u := e.Begin()
	if _, err := u.Call(x, "deposit", value.Int(500)); err != nil {
		t.Fatal(err)
	}
	ticked := make(chan struct{})
	go func() {
		e.Clock().Advance(10 * time.Minute)
		close(ticked)
	}()
	// Wait for the tick to reach x and block on it: x's lock word shows a
	// queued waiter (bit 0, package txn's waitBit).
	for deadline := time.Now().Add(10 * time.Second); e.st.LockWord(x).Load()&1 == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the tick never blocked on x")
		}
	}
	within("a transaction over every other member during the tick", readAll(x))
	select {
	case <-ticked:
		t.Fatal("the tick stepped a member a user transaction holds")
	default:
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	<-ticked
	fires := rec.list()
	if want := fmt.Sprint(x); !slices.Contains(fires[1:], want) {
		t.Fatalf("the tick after the deposit fired %v, want %s among them", fires[1:], want)
	}
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
}

// TestTimerChurnBetweenTicksStaysBounded: members that leave and re-join
// between two ticks do not grow a cohort's arrays past twice its members.
func TestTimerChurnBetweenTicksStaysBounded(t *testing.T) {
	cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatal(err)
	}
	tick := c.Trigger("Tick")
	for oid := store.OID(1); oid <= 10; oid++ {
		e.timers.arm(oid, c, tick, e.clk.Now())
	}
	for i := 0; i < 1000; i++ {
		e.timers.disarm(store.OID(1+i%10), tick)
		e.timers.arm(store.OID(1+i%10), c, tick, e.clk.Now())
	}
	for _, co := range e.timers.cohorts {
		if len(co.oids) > 20 {
			t.Fatalf("a 10-member cohort holds %d entries after churn", len(co.oids))
		}
	}
	if sched := e.TimerSchedule(); len(sched) != 10 {
		t.Fatalf("schedule after churn: %v", sched)
	}
}
