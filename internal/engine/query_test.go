package engine

import (
	"strings"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

func TestQueryHistoryFindsOccurrences(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	e.EnableTracing(0)
	oid := setup(t, e, cls, impl)

	// Three transactions: deposit; withdraw; deposit+withdraw.
	e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(10))
		return err
	})
	e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(5))
		return err
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		_, err := tx.Call(oid, "withdraw", value.Int(1))
		return err
	})

	// Where did a withdraw follow a deposit (any gap)?
	points, err := e.QueryHistory(oid, "relative(after deposit, after withdraw)")
	if err != nil {
		t.Fatal(err)
	}
	// Both withdraws qualify (the first deposit precedes both).
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
	// Strict adjacency only matches the same-transaction pair.
	seq, err := e.QueryHistory(oid, "after deposit; before withdraw; after withdraw")
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 {
		t.Fatalf("sequence points = %v", seq)
	}
	// The occurrence point is a real history position: look it up.
	hist, err := e.History(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := hist[seq[0]-1].Kind; got != "after withdraw" {
		t.Fatalf("occurrence at %d = %s", seq[0], got)
	}
	// Count transaction commits after the fact.
	commits, err := e.QueryHistory(oid, "after tcommit")
	if err != nil || len(commits) != 4 { // setup + three transactions
		t.Fatalf("commits = %v, %v", commits, err)
	}
	// choose works offline too.
	third, err := e.QueryHistory(oid, "choose 3 (after tcommit)")
	if err != nil || len(third) != 1 || third[0] != commits[2] {
		t.Fatalf("choose 3 = %v, %v (commits %v)", third, err, commits)
	}
}

func TestQueryHistoryRejectsMasksAndMissingHistory(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)

	// Tracing off.
	e0 := newEngine(t, Options{})
	oid0 := setup(t, e0, cls, impl)
	if _, err := e0.QueryHistory(oid0, "after deposit"); err == nil || !strings.Contains(err.Error(), "trac") {
		t.Fatalf("query with tracing off: %v", err)
	}

	cls2, impl2 := accountClass(&recorder{})
	e := newEngine(t, Options{})
	e.EnableTracing(0)
	oid := setup(t, e, cls2, impl2)
	_, err := e.QueryHistory(oid, "after withdraw(a) && a > 5")
	if err == nil || !strings.Contains(err.Error(), "mask") {
		t.Fatalf("masked query: %v", err)
	}
	// Unparseable expression.
	if _, err := e.QueryHistory(oid, "relative(after"); err == nil {
		t.Fatal("bad query parsed")
	}
	// Unknown object.
	if _, err := e.QueryHistory(9999, "after deposit"); err == nil {
		t.Fatal("query on missing object succeeded")
	}
}

func TestQueryHistoryRejectsTruncatedLog(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	e.EnableTracing(64) // a small trace, lapped below
	oid := setup(t, e, cls, impl)
	if _, err := e.QueryHistory(oid, "after deposit"); err != nil {
		t.Fatalf("query before the trace laps: %v", err)
	}
	for i := 0; i < 10; i++ {
		e.Transact(func(tx *Tx) error {
			_, err := tx.Call(oid, "deposit", value.Int(1))
			return err
		})
	}
	_, err := e.QueryHistory(oid, "after deposit")
	if err == nil || !strings.Contains(err.Error(), "lapped") {
		t.Fatalf("lapped-trace query: %v", err)
	}
}

// TestQueryHistoryRefusesRecoveredObject: a reopened engine's trace
// holds only what happened since the reopen, so an object recovered
// from disk — or one created before EnableTracing — is refused rather
// than answered from the tail of its history.
func TestQueryHistoryRefusesRecoveredObject(t *testing.T) {
	dir := t.TempDir()
	cls, impl := accountClass(&recorder{})
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oid := setup(t, e, cls, impl)
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(10))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e = newEngine(t, Options{Dir: dir})
	e.EnableTracing(0)
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	points, err := e.QueryHistory(oid, "relative(after deposit, after withdraw)")
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("recovered object: points %v, err %v", points, err)
	}

	// The same for an object created before tracing was turned on.
	e2 := newEngine(t, Options{})
	cls2, impl2 := accountClass(&recorder{})
	early := setup(t, e2, cls2, impl2)
	e2.EnableTracing(0)
	if _, err := e2.History(early); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("object older than the trace: %v", err)
	}
}

func TestQueryHistorySeesTriggerTimerKinds(t *testing.T) {
	// A history containing timer firings of the class's own triggers
	// remains queryable: the probe resolution re-includes those kinds,
	// both as query targets and as inert points for other queries.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Daily", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	e.EnableTracing(0)
	oid := setup(t, e, cls, impl, "Daily")

	e.Clock().Advance(48 * time.Hour) // two daily firings recorded
	e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	})

	timers, err := e.QueryHistory(oid, "at time(HR=17)")
	if err != nil || len(timers) != 2 {
		t.Fatalf("timer query = %v, %v", timers, err)
	}
	// A deposit after the second day-end tick.
	after, err := e.QueryHistory(oid, "relative(choose 2 (at time(HR=17)), after deposit)")
	if err != nil || len(after) != 1 {
		t.Fatalf("relative-to-timer query = %v, %v", after, err)
	}
}

// TestHistoryIsTheObjectsOwn: with a second object's happenings
// interleaved on the trace, each object's history and its query points
// are its own.
func TestHistoryIsTheObjectsOwn(t *testing.T) {
	cls, impl := accountClass(&recorder{})
	e := newEngine(t, Options{})
	e.EnableTracing(0)
	a := setup(t, e, cls, impl)
	var b store.OID
	e.Transact(func(tx *Tx) (err error) {
		b, err = tx.NewObject("account", nil)
		return err
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(a, "deposit", value.Int(1))
		tx.Call(b, "withdraw", value.Int(1))
		tx.Call(b, "withdraw", value.Int(1))
		_, err := tx.Call(a, "deposit", value.Int(1))
		return err
	})
	for _, c := range []struct {
		oid         store.OID
		kind, other string
		n           int
	}{{a, "after deposit", "after withdraw", 2}, {b, "after withdraw", "after deposit", 2}} {
		hist, err := e.History(c.oid)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range hist {
			if ev.OID != uint64(c.oid) || ev.Kind == c.other {
				t.Fatalf("history of %d holds %v", c.oid, ev)
			}
		}
		points, err := e.QueryHistory(c.oid, c.kind)
		if err != nil || len(points) != c.n {
			t.Fatalf("%s at %d: %v, %v", c.kind, c.oid, points, err)
		}
		for _, p := range points {
			if hist[p-1].Kind != c.kind {
				t.Fatalf("point %d of %d is %v", p, c.oid, hist[p-1])
			}
		}
	}
}
