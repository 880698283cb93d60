package engine

import (
	"errors"
	"slices"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestTcompleteFixpointRounds pins the §6 commit fixpoint's rounds: it
// runs until a round fires nothing, whichever class fired, and a
// transaction that never quiesces is aborted after exactly
// maxTcompleteRounds rounds.
func TestTcompleteFixpointRounds(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "First", Event: "before tcomplete"},
		schema.Trigger{Name: "Second", Event: "relative(before tcomplete, before tcomplete)"},
		schema.Trigger{Name: "Loop", Perpetual: true, Event: "before tcomplete"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl)
	note := &schema.Class{Name: "note", Methods: []schema.Method{{Name: "touch", Mode: schema.ModeUpdate}}}
	if _, err := e.RegisterClass(note, ClassImpl{Methods: map[string]MethodImpl{
		"touch": func(*MethodCtx) (value.Value, error) { return value.Null(), nil },
	}}, nil); err != nil {
		t.Fatal(err)
	}
	var noteOID store.OID
	if err := e.Transact(func(tx *Tx) (err error) {
		noteOID, err = tx.NewObject("note", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The note is accessed first, so the account's class is the run's
	// second: First fires in round 0, Second in round 1, round 2 is quiet.
	base := e.Stats()
	if err := e.Transact(func(tx *Tx) error {
		if _, err := tx.Call(noteOID, "touch"); err != nil {
			return err
		}
		for _, trig := range []string{"First", "Second"} {
			if err := tx.Activate(oid, trig); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.list(); !slices.Equal(got, []string{"First", "Second"}) {
		t.Fatalf("fired %v, want First then Second", got)
	}
	if d := e.Stats().Delta(base); d.TcompleteRounds != 3 {
		t.Fatalf("%d tcomplete rounds, want 3", d.TcompleteRounds)
	}

	base = e.Stats()
	err := e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Loop") })
	if !errors.Is(err, ErrTcompleteDiverged) {
		t.Fatalf("err = %v, want ErrTcompleteDiverged", err)
	}
	if d := e.Stats().Delta(base); d.TcompleteRounds != maxTcompleteRounds {
		t.Fatalf("%d tcomplete rounds before the abort, want %d", d.TcompleteRounds, maxTcompleteRounds)
	}
}
