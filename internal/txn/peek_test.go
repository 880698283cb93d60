package txn

import (
	"errors"
	"testing"
	"time"

	"ode/internal/store"
	"ode/internal/value"
)

func TestPeekLocksWithoutAccessAccounting(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("x", map[string]value.Value{"v": value.Int(1)})
	setup.Commit()

	tx := m.Begin()
	rec, err := tx.Peek(a.OID)
	if err != nil || !field(rec, "v").Equal(value.Int(1)) {
		t.Fatalf("Peek: %+v, %v", rec, err)
	}
	// Peek locks...
	if !tx.Holds(a.OID) {
		t.Fatal("peek did not lock")
	}
	// ...but does not count as an access.
	if len(tx.Accessed()) != 0 {
		t.Fatalf("peeked object in accessed set: %v", tx.Accessed())
	}
	// A later real access is still "first".
	_, first, err := tx.Access(a.OID)
	if err != nil || !first {
		t.Fatalf("access after peek: first=%v err=%v", first, err)
	}
	tx.Commit()
}

func TestPeekBlocksBehindWriter(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("x", map[string]value.Value{"v": value.Int(1)})
	setup.Commit()

	writer := m.Begin()
	rec, _, _ := writer.Access(a.OID)
	rec.SetField("v", value.Int(2))

	got := make(chan int64, 1)
	go func() {
		reader := m.Begin()
		r, err := reader.Peek(a.OID)
		if err != nil {
			got <- -1
			return
		}
		got <- field(r, "v").AsInt()
		reader.Abort()
	}()
	select {
	case <-got:
		t.Fatal("peek read through a held write lock")
	case <-time.After(30 * time.Millisecond):
	}
	writer.Commit()
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("peek saw %d, want the committed 2", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peek never unblocked")
	}
}

func TestPeekOnFinishedTx(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	a, _ := tx.Create("x", nil)
	tx.Commit()
	if _, err := tx.Peek(a.OID); !errors.Is(err, ErrNotActive) {
		t.Fatalf("peek on finished tx: %v", err)
	}
}

func TestPeekMissingObject(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	defer tx.Abort()
	if _, err := tx.Peek(999); err == nil {
		t.Fatal("peek of missing object succeeded")
	}
}

// TestPeekStepReleasesWhatItDidNotAccess: PeekStep holds a lock it
// granted for the step only, unless the step accessed the object; an
// object held before the call, or accessed by an earlier step, stays
// locked to the end, and a missing object runs no step and keeps no
// lock.
func TestPeekStepReleasesWhatItDidNotAccess(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	var oids []store.OID
	for i := 0; i < 1001; i++ {
		r, _ := setup.Create("x", nil)
		oids = append(oids, r.OID)
	}
	setup.Commit()

	tx := m.BeginSystem()
	if _, _, err := tx.Access(oids[0]); err != nil { // held before the call
		t.Fatal(err)
	}
	for i, oid := range oids {
		err := tx.PeekStep(oid, func(rec *store.Record) error {
			if rec.OID != oid {
				t.Fatalf("step got %d for %d", rec.OID, oid)
			}
			var err error
			switch i {
			case 500: // the step accesses its own object
				_, _, err = tx.Access(oid)
			case 700: // and this one a later object
				_, _, err = tx.Access(oids[900])
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.PeekStep(999_999, func(*store.Record) error {
		t.Fatal("step ran for a missing object")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if held := heldOf(m, oids...); held != 3 {
		t.Fatalf("%d locks held before commit, want 3", held)
	}
	for _, i := range []int{0, 500, 900} {
		if !tx.Holds(oids[i]) {
			t.Fatalf("object %d was released", i)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if held, waiting := heldOf(m, oids...), m.locks.waiters(); held != 0 || waiting != 0 {
		t.Fatalf("after commit: held=%d waiting=%d", held, waiting)
	}
	if err := tx.PeekStep(oids[1], func(*store.Record) error { return nil }); !errors.Is(err, ErrNotActive) {
		t.Fatalf("PeekStep on a finished transaction: %v", err)
	}
}
