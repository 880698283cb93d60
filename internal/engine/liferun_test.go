package engine

import (
	"fmt"
	"testing"

	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
)

// TestLifecycleRunIsOneFlightRecordPerKind: a transaction posts each of
// its lifecycle kinds as one run over the objects it accessed. Over
// 10 000 objects of a class none of whose triggers observes a lifecycle
// event, the commit writes one StageBatch per kind — not 20 000
// StageHappening records — and Happenings counts every lifecycle
// happening: the 10 000 after-tbegin counted at first access and the
// 20 000 of the two runs. The transaction that created the objects
// counted its 10 000 after-create the same way, without a record.
func TestLifecycleRunIsOneFlightRecordPerKind(t *testing.T) {
	const n = 10000
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	// commit runs tx's commit and checks the happenings it counted since
	// before and the flight records it wrote: none but StageBatch ones.
	commit := func(what string, tx *Tx, before uint64) {
		t.Helper()
		mark := e.flight.Total()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Happenings - before; got != 3*n {
			t.Errorf("%s counted %d happenings, want %d", what, got, 3*n)
		}
		written := e.flight.Total() - mark
		batches, happenings := map[string][]int{}, 0
		for _, ev := range e.FlightEvents(int(written)) {
			switch ev.Stage {
			case obs.StageHappening:
				happenings++
			case obs.StageBatch:
				batches[ev.Kind] = append(batches[ev.Kind], ev.From)
			}
		}
		if happenings != 0 {
			t.Errorf("%s's commit wrote %d happening records, want none", what, happenings)
		}
		if got, want := fmt.Sprint(batches), fmt.Sprintf("map[after tcommit:[%d] before tcomplete:[%d]]", n, n); got != want {
			t.Errorf("%s's commit wrote StageBatch records %s, want %s", what, got, want)
		}
		if written > 8 {
			t.Errorf("%s's commit wrote %d flight records, want its transactions' and one batch per kind", what, written)
		}
	}

	oids := make([]store.OID, n)
	before, mark := e.Stats().Happenings, e.flight.Total()
	tx := e.Begin()
	for i := range oids {
		var err error
		if oids[i], err = tx.NewObject("account", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.flight.Total() - mark; got != 1 {
		t.Errorf("creating %d objects wrote %d flight records, want the transaction's begin", n, got)
	}
	commit("creation", tx, before)

	before = e.Stats().Happenings
	tx = e.Begin()
	for _, oid := range oids {
		if _, err := tx.Get(oid, "balance"); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Happenings - before; got != n {
		t.Fatalf("first access to %d objects counted %d happenings, want %d after-tbegin", n, got, n)
	}
	commit("access", tx, before)
}
