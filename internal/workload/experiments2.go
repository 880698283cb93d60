package workload

import (
	"fmt"
	"time"

	"ode/internal/compile"
	"ode/internal/engine"
	"ode/internal/evlang"
	"ode/internal/schema"
	"ode/internal/value"
)

// E6Row reports one §7 coupling encoding compiled to an automaton.
type E6Row struct {
	Mode      string
	Event     string
	DFAStates int
	Symbols   int
}

// couplingEncodings are the paper's nine §7 expressions with
// E = "after withdraw(a) && a > 100" and C = "balance < 5000".
func couplingEncodings() [][2]string {
	const (
		e = "after withdraw(a) && a > 100"
		c = "balance < 5000"
	)
	wrap := func(f string, args ...any) string { return fmt.Sprintf(f, args...) }
	ec := "(" + e + ") && " + c
	def := wrap("fa((%s), before tcomplete, after tbegin)", e)
	return [][2]string{
		{"Immediate-Immediate", ec},
		{"Immediate-Deferred", wrap("fa(%s, before tcomplete, after tbegin)", ec)},
		{"Immediate-Dependent", wrap("fa(%s, after tcommit, after tbegin)", ec)},
		{"Immediate-Independent", wrap("fa(%s, after tcommit | after tabort, after tbegin)", ec)},
		{"Deferred-Immediate", wrap("(%s) && %s", def, c)},
		{"Deferred-Dependent", wrap("fa((%s) && %s, after tcommit, after tbegin)", def, c)},
		{"Deferred-Independent", wrap("fa((%s) && %s, after tcommit | after tabort, after tbegin)", def, c)},
		{"Dependent-Immediate", wrap("(fa((%s), after tcommit, after tbegin)) && %s", e, c)},
		{"Independent-Immediate", wrap("(fa((%s), after tcommit | after tabort, after tbegin)) && %s", e, c)},
	}
}

func couplingClass() *schema.Class {
	cls := &schema.Class{
		Name:   "account",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "a", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "a", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
	}
	for i, enc := range couplingEncodings() {
		cls.Triggers = append(cls.Triggers, schema.Trigger{
			Name:      fmt.Sprintf("C%d", i),
			Perpetual: true,
			Event:     enc[1],
		})
	}
	return cls
}

// RunE6 compiles the nine coupling encodings over one shared class
// alphabet and reports automaton sizes: the E-A model's "any coupling
// is just an event expression" claim, made concrete.
func RunE6() ([]E6Row, error) {
	cls := couplingClass()
	res, err := evlang.ResolveClass(cls, evlang.ForClass(cls))
	if err != nil {
		return nil, err
	}
	encs := couplingEncodings()
	rows := make([]E6Row, 0, len(encs))
	for i, enc := range encs {
		tr := res.Trigger(fmt.Sprintf("C%d", i))
		d := compile.Compile(tr.Expr, res.Alphabet.NumSymbols)
		rows = append(rows, E6Row{
			Mode:      enc[0],
			Event:     enc[1],
			DFAStates: d.NumStates,
			Symbols:   d.NumSymbols,
		})
	}
	return rows, nil
}

// E7Row reports one simulated time-event schedule.
type E7Row struct {
	Spec     string
	Horizon  string
	Fires    int
	Expected int
}

// RunE7 exercises the three time-event forms on the live engine over a
// simulated 48-hour horizon (footnote 1: timed triggers are composite
// events like any other).
func RunE7() ([]E7Row, error) {
	eng, err := engine.New(engine.Options{Start: time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	counts := map[string]*int{}
	cls := &schema.Class{
		Name:   "monitor",
		Fields: []schema.Field{{Name: "x", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "tick", Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "AtDaily", Perpetual: true, Event: "at time(HR=17)"},
			{Name: "EveryH", Perpetual: true, Event: "every time(HR=6)"},
			{Name: "AfterOnce", Event: "after time(HR=30)"},
		},
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"tick": func(ctx *engine.MethodCtx) (value.Value, error) { return value.Null(), nil },
		},
		Actions: map[string]engine.ActionFunc{},
	}
	for _, tr := range cls.Triggers {
		n := new(int)
		counts[tr.Name] = n
		impl.Actions[tr.Name] = func(*engine.ActionCtx) error { *n++; return nil }
	}
	if _, err := eng.RegisterClass(cls, impl, nil); err != nil {
		return nil, err
	}
	err = eng.Transact(func(tx *engine.Tx) error {
		oid, err := tx.NewObject("monitor", nil)
		if err != nil {
			return err
		}
		for _, tr := range cls.Triggers {
			if err := tx.Activate(oid, tr.Name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	eng.Clock().Advance(48 * time.Hour)
	if errs := eng.TimerErrors(); len(errs) > 0 {
		return nil, errs[0]
	}
	return []E7Row{
		{Spec: "at time(HR=17), daily", Horizon: "48h", Fires: *counts["AtDaily"], Expected: 2},
		{Spec: "every time(HR=6)", Horizon: "48h", Fires: *counts["EveryH"], Expected: 8},
		{Spec: "after time(HR=30), one-shot", Horizon: "48h", Fires: *counts["AfterOnce"], Expected: 1},
	}, nil
}

// E2Engine measures the live engine's actual per-object memory using
// the automaton metadata of a registered class: the §5 claim "one word
// per active trigger per object" checked against the runtime's own
// structures.
type E2EngineRow struct {
	Objects             int
	TriggersPerObject   int
	StateWordsPerObject int
}

// RunE2Engine activates the coupling-class triggers on n objects and
// confirms each object's activation map holds exactly one state word
// per trigger.
func RunE2Engine(n int) (E2EngineRow, error) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return E2EngineRow{}, err
	}
	defer eng.Close()
	cls := couplingClass()
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"deposit":  func(*engine.MethodCtx) (value.Value, error) { return value.Null(), nil },
			"withdraw": func(*engine.MethodCtx) (value.Value, error) { return value.Null(), nil },
		},
		Actions: map[string]engine.ActionFunc{},
	}
	for _, tr := range cls.Triggers {
		impl.Actions[tr.Name] = func(*engine.ActionCtx) error { return nil }
	}
	if _, err := eng.RegisterClass(cls, impl, nil); err != nil {
		return E2EngineRow{}, err
	}
	words := 0
	err = eng.Transact(func(tx *engine.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			for _, tr := range cls.Triggers {
				if err := tx.Activate(oid, tr.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return E2EngineRow{}, err
	}
	for _, oid := range eng.Store().OIDs() {
		rec, err := eng.Store().Get(oid)
		if err != nil {
			return E2EngineRow{}, err
		}
		for i := range rec.Trigs {
			if !rec.Trigs[i].IsZero() {
				words++
			}
		}
	}
	return E2EngineRow{
		Objects:             n,
		TriggersPerObject:   len(cls.Triggers),
		StateWordsPerObject: words / n,
	}, nil
}
