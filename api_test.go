package ode_test

import (
	"strings"
	"testing"
	"time"

	"ode"
	"ode/internal/oracle"
	"ode/internal/sim"
)

func TestValueConstructorsAndRef(t *testing.T) {
	if ode.Int(3).AsInt() != 3 || ode.Float(1.5).AsFloat() != 1.5 {
		t.Fatal("numeric constructors")
	}
	if !ode.Bool(true).AsBool() || ode.Str("x").AsString() != "x" {
		t.Fatal("bool/str constructors")
	}
	if !ode.Null().IsNull() {
		t.Fatal("null")
	}
	now := time.Unix(5, 0)
	if !ode.TimeVal(now).AsTime().Equal(now) {
		t.Fatal("time")
	}
	if ode.Ref(7).AsID() != 7 {
		t.Fatal("ref")
	}
}

func TestDefinesAddPanicsOnBadSyntax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad define accepted")
		}
	}()
	ode.NewDefines().Add("broken", "relative(after")
}

func TestStatsThroughRootAPI(t *testing.T) {
	db := openDB(t)
	f := newFires()
	err := balanceMethods(db.NewClass("account")).
		Trigger("T(): perpetual after deposit ==> act", f.action("T")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return tx.Activate(acct, "T")
	})
	db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(acct, "deposit", ode.Int(1))
		return err
	})
	s := db.Stats()
	if s.TxCommitted < 2 || s.Firings < 1 || s.Happenings == 0 || s.Steps == 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestTraceCheckerThroughRootAPI attaches the §4 / §6 trace checker
// (internal/oracle) to a database opened through the root API.
func TestTraceCheckerThroughRootAPI(t *testing.T) {
	db, err := ode.Open(ode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	chk := oracle.New()
	sim.Attach(chk, db.Engine())
	f := newFires()
	err = balanceMethods(db.NewClass("account")).
		Trigger("Seq(): perpetual after deposit; before withdraw; after withdraw ==> act", f.action("Seq")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return tx.Activate(acct, "Seq")
	})
	if err := db.Transact(func(tx *ode.Tx) error {
		tx.Call(acct, "deposit", ode.Int(1))
		_, err := tx.Call(acct, "withdraw", ode.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if f.count("Seq") != 1 {
		t.Fatalf("fires = %d", f.count("Seq"))
	}
	if err := chk.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Verify(db.Engine().Store()); err != nil {
		t.Fatal(err)
	}
	if s := chk.Stats(); s.Steps == 0 {
		t.Fatalf("the checker checked no step: %+v", s)
	}
}

func TestBuilderMethodModesAndFuncs(t *testing.T) {
	db := openDB(t)
	f := newFires()
	err := db.NewClass("gauge").
		Field("level", ode.KindFloat, ode.Float(0)).
		Method("calibrate", ode.ModeUpdate, func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("level", ctx.Arg("to"))
		}, ode.P("to", ode.KindFloat)).
		Read("level", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ctx.Get("level")
		}).
		Func("limit", func([]ode.Value) (ode.Value, error) { return ode.Float(10), nil }).
		Trigger("High(): perpetual after calibrate(v) && v > limit() ==> act", f.action("High")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var g ode.OID
	db.Transact(func(tx *ode.Tx) error {
		g, _ = tx.NewObject("gauge", nil)
		return tx.Activate(g, "High")
	})
	db.Transact(func(tx *ode.Tx) error {
		tx.Call(g, "calibrate", ode.Float(5))  // below limit
		tx.Call(g, "calibrate", ode.Float(15)) // above
		return nil
	})
	if f.count("High") != 1 {
		t.Fatalf("High fired %d times", f.count("High"))
	}
	// Int→float coercion on call arguments.
	if err := db.Transact(func(tx *ode.Tx) error {
		_, err := tx.Call(g, "calibrate", ode.Int(3))
		return err
	}); err != nil {
		t.Fatalf("int→float coercion: %v", err)
	}
}

func TestQueryHistoryRootErrors(t *testing.T) {
	db := openDB(t) // tracing off
	err := balanceMethods(db.NewClass("account")).Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return nil
	})
	_, err = db.QueryHistory(acct, "after deposit")
	if err == nil || !strings.Contains(err.Error(), "tracing is off") {
		t.Fatalf("query with tracing off: %v", err)
	}
}

// TestExplainAndFlightThroughRootAPI: the PR 6 observability surfaces
// — firing provenance and the always-on flight recorder — through the
// public facade, including the Options knobs.
func TestExplainAndFlightThroughRootAPI(t *testing.T) {
	db, err := ode.Open(ode.Options{FlightBuffer: 128, ProvenanceBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	f := newFires()
	err = balanceMethods(db.NewClass("account")).
		Trigger("Audit(): prior(after deposit, after withdraw) ==> act", f.action("Audit")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return tx.Activate(acct, "Audit")
	})
	if err := db.Transact(func(tx *ode.Tx) error {
		if _, err := tx.Call(acct, "deposit", ode.Int(50)); err != nil {
			return err
		}
		_, err := tx.Call(acct, "withdraw", ode.Int(20))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if f.count("Audit") != 1 {
		t.Fatalf("fires = %d", f.count("Audit"))
	}

	ex, err := db.Explain("Audit", acct)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fired || !ex.Complete || len(ex.Steps) != 2 {
		t.Fatalf("explanation %+v", ex)
	}
	if ex.Steps[0].Kind != "after deposit" || !ex.Steps[1].Accepted {
		t.Fatalf("chain %+v", ex.Steps)
	}

	events := db.FlightEvents(0)
	if len(events) == 0 {
		t.Fatal("flight recorder empty")
	}
	var sawFire bool
	for _, ev := range events {
		if ev.Stage == ode.StageFire && ev.Trigger == "Audit" {
			sawFire = true
		}
	}
	if !sawFire {
		t.Fatalf("no fire event among %d flight events", len(events))
	}
	if s := db.Stats(); s.FlightEvents == 0 || s.ProvenanceSteps == 0 {
		t.Fatalf("stats missing obs counters: %+v", s)
	}
}

// TestPostBatchTraceRecordIsStageBatch: a PostBatch run is traced as one
// record per kind, which a library caller matches by ode.StageBatch; the
// record's From holds the run's count.
func TestPostBatchTraceRecordIsStageBatch(t *testing.T) {
	db := openDB(t)
	if err := balanceMethods(db.NewClass("account")).Register(); err != nil {
		t.Fatal(err)
	}
	oids := make([]ode.OID, 3)
	err := db.Transact(func(tx *ode.Tx) (err error) {
		for i := range oids {
			if oids[i], err = tx.NewObject("account", nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(256)
	b := ode.NewBatch("account", len(oids))
	for _, oid := range oids {
		b.Call(oid, "deposit", ode.Int(5))
	}
	if err := db.PostBatch(b); err != nil {
		t.Fatal(err)
	}
	var runs []ode.FlightEvent
	for _, ev := range db.TraceEvents(0) {
		if ev.Stage == ode.StageBatch && ev.Class == "account" && ev.Kind == "after deposit" {
			runs = append(runs, ev)
		}
	}
	if len(runs) != 1 || runs[0].From != len(oids) || runs[0].OID != 0 {
		t.Fatalf("after-deposit batch records %+v, want one with From %d and no object", runs, len(oids))
	}
	if got := ode.StageBatch.String(); got != "batch" {
		t.Fatalf("StageBatch is %q, want batch", got)
	}
}
