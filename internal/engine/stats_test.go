package engine

import (
	"errors"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

func TestStatsCounters(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Large")

	base := e.Stats()
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(500)) // fires
		tx.Call(oid, "withdraw", value.Int(50))  // masked out
		return nil
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return errors.New("abort")
	})
	s := e.Stats()

	if s.TxBegun-base.TxBegun != 2 {
		t.Fatalf("TxBegun Δ=%d", s.TxBegun-base.TxBegun)
	}
	if s.TxCommitted-base.TxCommitted != 1 || s.TxAborted-base.TxAborted != 1 {
		t.Fatalf("outcomes Δcommit=%d Δabort=%d", s.TxCommitted-base.TxCommitted, s.TxAborted-base.TxAborted)
	}
	if s.Firings-base.Firings != 1 {
		t.Fatalf("Firings Δ=%d", s.Firings-base.Firings)
	}
	// Two withdraw postings evaluated the mask (before events don't —
	// the trigger's expression only uses after-withdraw bits).
	if s.MaskEvals-base.MaskEvals != 2 {
		t.Fatalf("MaskEvals Δ=%d", s.MaskEvals-base.MaskEvals)
	}
	if s.Happenings <= base.Happenings || s.Steps <= base.Steps {
		t.Fatal("happenings/steps did not advance")
	}
	// The committed transaction's after-tcommit ran in a system tx.
	if s.SystemTx-base.SystemTx < 1 {
		t.Fatalf("SystemTx Δ=%d", s.SystemTx-base.SystemTx)
	}
}

// TestStatsDeltaGauges: deleting armed objects between two snapshots
// lowers the gauges, and Delta carries their current values instead of
// wrapping the difference around zero, while counters still subtract.
func TestStatsDeltaGauges(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Late", Event: "after time(M=45)"},
		schema.Trigger{Name: "Dep", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oids []store.OID
	if err := e.Transact(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			oids = append(oids, oid)
			for _, trig := range []string{"Tick", "Late", "Dep"} {
				if err := tx.Activate(oid, trig); err != nil {
					return err
				}
			}
			if _, err := tx.Call(oid, "deposit", value.Int(1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	if err := e.Transact(func(tx *Tx) error {
		for _, oid := range oids[:6] {
			if err := tx.DeleteObject(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cur := e.Stats()
	d := cur.Delta(base)
	for _, g := range []struct {
		name           string
		base, cur, got uint64
	}{
		{"TimersPending", base.TimersPending, cur.TimersPending, d.TimersPending},
		{"TimerMembers", base.TimerMembers, cur.TimerMembers, d.TimerMembers},
		{"ProvObjects", base.ProvObjects, cur.ProvObjects, d.ProvObjects},
	} {
		if g.cur >= g.base || g.got != g.cur {
			t.Errorf("%s: %d → %d, Delta says %d; want the gauge to fall and Delta to carry it", g.name, g.base, g.cur, g.got)
		}
	}
	if d.TimerCohorts != cur.TimerCohorts || d.ProvBytes != cur.ProvBytes || d.AutomatonTriggers != cur.AutomatonTriggers {
		t.Errorf("gauges in Delta: %+v, current %+v", d, cur)
	}
	if d.TxCommitted != 1 || d.Happenings != cur.Happenings-base.Happenings {
		t.Errorf("counters in Delta: %d commits, %d happenings", d.TxCommitted, d.Happenings)
	}
	if StatsDelta(cur, base) != d {
		t.Error("StatsDelta disagrees with Delta")
	}
}
