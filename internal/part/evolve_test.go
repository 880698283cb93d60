package part

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ode/internal/engine"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// Schema evolution across a restart: persisted trigger state binds by
// name, so a class reopened with its triggers reordered, one added and
// one removed resumes every surviving trigger where it stopped, and
// firing order follows the new declaration. The same script runs
// against a durable engine and a two-partition DB.

// evoDB is what the script needs of either.
type evoDB interface {
	N() int
	PartitionOf(oid store.OID) int
	Transact(p int, fn func(*engine.Tx) error) error
	TriggerState(oid store.OID, trigger string) (int, bool, error)
	Checkpoint() error
	Close() error
}

type evoEngine struct{ *engine.Engine }

func (e evoEngine) N() int                    { return 1 }
func (e evoEngine) PartitionOf(store.OID) int { return 0 }
func (e evoEngine) Transact(_ int, fn func(*engine.Tx) error) error {
	return e.Engine.Transact(fn)
}

var evoTriggers = map[string]schema.Trigger{
	"A":   {Name: "A", Perpetual: true, Event: "relative(after report(n) && n > 10, after report(n) && n > 20)"},
	"B":   {Name: "B", Perpetual: true, Params: []schema.Param{{Name: "lim", Kind: value.KindInt}}, Event: "every 4 (after report(n) && n > lim)"},
	"C":   {Name: "C", Perpetual: true, Event: "every 5 (after report)"},
	"D":   {Name: "D", Perpetual: true, Event: "every 2 (after report)"},
	"New": {Name: "New", Perpetual: true, Event: "after report(n) && n > 500"},
}

// evoClass declares the meter class with the named triggers in order.
func evoClass(log *fireLog, order ...string) (*schema.Class, engine.ClassImpl) {
	cls := &schema.Class{
		Name:   "meter",
		Fields: []schema.Field{{Name: "v", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "report", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"report": func(ctx *engine.MethodCtx) (value.Value, error) {
				return value.Null(), ctx.Set("v", ctx.Arg("n"))
			},
		},
		Actions: map[string]engine.ActionFunc{},
	}
	for _, name := range order {
		name := name
		cls.Triggers = append(cls.Triggers, evoTriggers[name])
		impl.Actions[name] = func(ctx *engine.ActionCtx) error {
			log.add(fmt.Sprintf("%s/%d", name, ctx.Self))
			return nil
		}
	}
	return cls, impl
}

func TestSchemaEvolutionAcrossRestart(t *testing.T) {
	open := map[string]func(t *testing.T, dir string, log *fireLog, order ...string) evoDB{
		"engine": func(t *testing.T, dir string, log *fireLog, order ...string) evoDB {
			e, err := engine.New(engine.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cls, impl := evoClass(log, order...)
			if _, err := e.RegisterClass(cls, impl, nil); err != nil {
				t.Fatal(err)
			}
			return evoEngine{e}
		},
		"part-2": func(t *testing.T, dir string, log *fireLog, order ...string) evoDB {
			db, err := Open(Options{N: 2, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cls, impl := evoClass(log, order...)
			if err := db.Register(func(_ int, e *engine.Engine) error {
				_, rerr := e.RegisterClass(cls, impl, nil)
				return rerr
			}); err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
	for name, openDB := range open {
		t.Run(name, func(t *testing.T) { runSchemaEvolution(t, openDB) })
	}
}

func runSchemaEvolution(t *testing.T, open func(t *testing.T, dir string, log *fireLog, order ...string) evoDB) {
	dir := t.TempDir()
	log := &fireLog{}
	report := func(db evoDB, oid store.OID, n int64) {
		t.Helper()
		err := db.Transact(db.PartitionOf(oid), func(tx *engine.Tx) error {
			_, err := tx.Call(oid, "report", value.Int(n))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	type inst struct {
		state  int
		active bool
	}
	states := func(db evoDB, oid store.OID, names ...string) map[string]inst {
		t.Helper()
		out := map[string]inst{}
		for _, n := range names {
			s, a, err := db.TriggerState(oid, n)
			if err != nil {
				t.Fatal(err)
			}
			out[n] = inst{s, a}
		}
		return out
	}

	// Version 1: A, B(lim), C, D. One object per partition; B's limit
	// differs per object so a parameter bound to the wrong activation
	// shows. Three reports leave every automaton off its start state.
	db := open(t, dir, log, "A", "B", "C", "D")
	oids := make([]store.OID, db.N())
	for p := range oids {
		p := p
		err := db.Transact(p, func(tx *engine.Tx) error {
			oid, err := tx.NewObject("meter", nil)
			if err != nil {
				return err
			}
			oids[p] = oid
			for _, name := range []string{"A", "C", "D"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			return tx.Activate(oid, "B", value.Int(int64(5+100*p)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	before := map[store.OID]map[string]inst{}
	for p, oid := range oids {
		for _, n := range []int64{15, 12, 11} {
			report(db, oid, n+int64(100*p)) // above B's limit and A's first threshold on every object
		}
		before[oid] = states(db, oid, "A", "B", "C", "D")
		for name, s := range before[oid] {
			if s.state == 0 || !s.active {
				t.Fatalf("setup: trigger %s of object %d is at %+v, want an active non-start state", name, oid, s)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Version 2: reordered, New added, C removed.
	mark := log.count()
	db = open(t, dir, log, "D", "New", "B", "A")
	for p, oid := range oids {
		got := states(db, oid, "A", "B", "D")
		want := map[string]inst{"A": before[oid]["A"], "B": before[oid]["B"], "D": before[oid]["D"]}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("object %d resumed at %v, want %v", oid, got, want)
		}
		if s, a, err := db.TriggerState(oid, "New"); err != nil || a || s != 0 {
			t.Fatalf("added trigger New on object %d: state=%d active=%v err=%v, want inactive at start", oid, s, a, err)
		}
		err := db.Transact(p, func(tx *engine.Tx) error { return tx.Activate(oid, "New") })
		if err != nil {
			t.Fatal(err)
		}
		// One report completes every surviving trigger at once — D's
		// second, B's fourth above its own limit, A's second threshold,
		// New's mask — so they fire together, in the new declaration
		// order; a report below B's limit on the other object's scale
		// would not have counted.
		report(db, oid, 600+int64(100*p))
		want2 := []string{"D", "New", "B", "A"}
		var got2 []string
		for _, f := range log.list()[mark:] {
			if trig, on, _ := strings.Cut(f, "/"); on == fmt.Sprint(oid) {
				got2 = append(got2, trig)
			}
		}
		if !reflect.DeepEqual(got2, want2) {
			t.Fatalf("object %d fired %v after the restart, want %v (new declaration order, no C)", oid, got2, want2)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Version 3 declares C again: its state sat in the records through
	// version 2's commits, the checkpoint and the reopen, untouched.
	db = open(t, dir, log, "D", "New", "B", "A", "C")
	defer db.Close()
	for _, oid := range oids {
		if got := states(db, oid, "C")["C"]; got != before[oid]["C"] {
			t.Fatalf("object %d: removed trigger C came back at %+v, want %+v", oid, got, before[oid]["C"])
		}
		report(db, oid, 1)
		if got := states(db, oid, "C")["C"]; got.state == before[oid]["C"].state || !got.active {
			t.Fatalf("object %d: C did not resume stepping: %+v", oid, got)
		}
	}
}
