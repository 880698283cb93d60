package txn

import (
	"errors"
	"testing"
	"time"

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
