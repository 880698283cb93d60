package engine

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ode/internal/fault"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// wholeTwo is the whole-view trigger most tests here run: it fires at
// the second withdraw the object has ever seen, aborted ones included.
var wholeTwo = schema.Trigger{Name: "Two", Perpetual: true,
	Event: "relative(after withdraw, after withdraw)", View: schema.WholeView}

// withdrawThenAbort withdraws 1 from oid in a transaction that aborts.
func withdrawThenAbort(t *testing.T, e *Engine, oid store.OID) {
	t.Helper()
	tx := e.Begin()
	if _, err := tx.Call(oid, "withdraw", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeViewStateIsDurable: what a whole-view automaton saw of an
// aborted transaction is one ordinary WAL frame, so it is there after a
// close and reopen like any committed state.
func TestWholeViewStateIsDurable(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	cls, impl := accountClass(rec, wholeTwo)
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oid := setup(t, e, cls, impl, "Two")
	withdrawThenAbort(t, e, oid)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("after a reopen the first withdraw fired Two %d times, want 1: the aborted one was forgotten", rec.count())
	}
}

// TestConcurrentAbortsKeepWholeViewState: goroutines aborting
// transactions on disjoint objects of one whole-view class share nothing
// but the class (run under -race: there is no engine-wide mutex left to
// order them), and every object keeps exactly its own history.
func TestConcurrentAbortsKeepWholeViewState(t *testing.T) {
	cls, impl := accountClass(&recorder{}, wholeTwo)
	fires := map[store.OID]int{}
	var mu sync.Mutex
	impl.Actions["Two"] = func(ctx *ActionCtx) error {
		mu.Lock()
		fires[ctx.Self]++
		mu.Unlock()
		return nil
	}
	e := newEngine(t, Options{Dir: t.TempDir()})
	chk := attachChecker(e, 1<<14)
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 2, 40
	oids := make([]store.OID, workers)
	if err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			var err error
			if oids[i], err = tx.NewObject("account", nil); err != nil {
				return err
			}
			if err := tx.Activate(oids[i], "Two"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, oid := range oids {
		wg.Add(1)
		go func(oid store.OID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := e.Begin()
				if _, err := tx.Call(oid, "withdraw", value.Int(1)); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Abort(); err != nil {
					t.Error(err)
					return
				}
			}
		}(oid)
	}
	wg.Wait()
	for _, oid := range oids {
		// Every withdraw but the first has one before it.
		if fires[oid] != rounds-1 {
			t.Errorf("object %d: Two fired %d times over %d aborted withdraws, want %d", oid, fires[oid], rounds, rounds-1)
		}
	}
	checkTrace(t, chk, e)
}

// TestFailedCommitRunsTheAbortEpilogue: a Commit that turns into an
// abort inside the txn layer — a commit dependency aborted, the log
// failed — is followed by everything an Abort is followed by: timers
// re-aligned with the restored activations, the created objects'
// provenance dropped, the abort counted and "after tabort" posted.
func TestFailedCommitRunsTheAbortEpilogue(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) Options
		// commit fails t2's commit and returns the error it must report.
		commit func(e *Engine, t2 *Tx) (got, want error)
	}{
		{"dependency", func(*testing.T) Options { return Options{} },
			func(e *Engine, t2 *Tx) (error, error) {
				t1 := e.Begin()
				t2.DependOn(t1)
				if err := t1.Abort(); err != nil {
					return err, nil
				}
				return t2.Commit(), txn.ErrDependencyAborted
			}},
		{"wal", func(t *testing.T) Options { return Options{Dir: t.TempDir(), Faults: fault.New()} },
			func(e *Engine, t2 *Tx) (error, error) {
				e.Faults().ArmNext(fault.WALWrite)
				return t2.Commit(), fault.ErrInjected
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			cls, impl := accountClass(rec,
				schema.Trigger{Name: "T", Perpetual: true, Event: "at time(HR=17)"},
				schema.Trigger{Name: "Ab", Perpetual: true, Event: "after tabort", View: schema.WholeView},
				schema.Trigger{Name: "Seq", Perpetual: true, Event: "after deposit; after withdraw"})
			e := newEngine(t, tc.opts(t))
			oid := setup(t, e, cls, impl, "T", "Ab")
			before := e.Stats()

			t2 := e.Begin()
			if err := t2.Deactivate(oid, "T"); err != nil {
				t.Fatal(err)
			}
			// An object of t2's own, with a provenance head to leak.
			made, err := t2.NewObject("account", nil)
			if err == nil {
				err = t2.Activate(made, "Seq")
			}
			if err == nil {
				_, err = t2.Call(made, "deposit", value.Int(1))
			}
			if err != nil {
				t.Fatal(err)
			}
			seq := e.Class("account").Trigger("Seq").slot
			if len(provSteps(e, made, seq)) == 0 {
				t.Fatal("the created object recorded no provenance: the test proves nothing about dropping it")
			}
			got, want := tc.commit(e, t2)
			if !errors.Is(got, want) {
				t.Fatalf("Commit = %v, want %v", got, want)
			}

			if _, active, err := e.TriggerState(oid, "T"); err != nil || !active {
				t.Fatalf("T active = %v, %v after the rollback; want true", active, err)
			}
			if len(provSteps(e, made, seq)) != 0 {
				t.Error("the aborted creation's provenance head leaked")
			}
			if rec.count() != 1 || rec.list()[0] != "Ab" {
				t.Errorf("firings after the failed commit = %v, want [Ab]: after tabort was not posted", rec.list())
			}
			if got := e.Stats().TxAborted - before.TxAborted; tc.name == "dependency" && got != 2 || tc.name == "wal" && got != 1 {
				t.Errorf("TxAborted grew by %d", got)
			}
			// The deactivation was rolled back; T's timer must be armed
			// again, or T is active and never fires until a restart.
			if sched := strings.Join(e.TimerSchedule(), "\n"); !strings.Contains(sched, " T") {
				t.Fatalf("timer schedule after the rollback has no entry for T:\n%s", sched)
			}
			if tc.name == "wal" {
				return // the log is failed for good: nothing commits any more
			}
			e.Clock().Advance(18 * time.Hour)
			if got := rec.list(); len(got) != 2 || got[1] != "T" {
				t.Fatalf("firings after 17:00 = %v, want [Ab T]", got)
			}
		})
	}
}

// TestAbortWithoutWholeViewAllocBudget pins that keeping whole-view
// state costs a class without a whole-view trigger nothing, and that
// "after tabort" is a phase of the aborting transaction, not a
// transaction of its own: an abort allocates its two handles and the
// restored record, and writes no frame.
func TestAbortWithoutWholeViewAllocBudget(t *testing.T) {
	const budget = 7 // measured 6; 8 while after tabort ran in a system transaction of its own
	dir := t.TempDir()
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Two", Perpetual: true, Event: "relative(after withdraw, after withdraw)"})
	e := newEngine(t, Options{Dir: dir})
	oid := setup(t, e, cls, impl, "Two")
	for i := 0; i < 8; i++ { // past the provenance journal's first growth
		withdrawThenAbort(t, e, oid)
	}
	wal, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() { withdrawThenAbort(t, e, oid) })
	t.Logf("aborted one-call transaction, no whole-view trigger: %.1f allocs", got)
	if got > budget {
		t.Errorf("aborted one-call transaction allocates %.1f objects; budget %d", got, budget)
	}
	if now, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || now.Size() != wal.Size() {
		t.Errorf("wal.log grew %d → %d bytes over aborts that keep nothing (%v)", wal.Size(), now.Size(), err)
	}
}
