package engine

import (
	"strings"
	"testing"

	"ode/internal/schema"
	"ode/internal/value"
)

// Mask name resolution (§3.2: a mask sees the event's parameters, the
// trigger's parameters and the object's state). Where one name is bound
// in several scopes the nearest wins: a declared formal renames to the
// method's parameter, then the happening's parameters, then the
// trigger's activation parameters, then the object's fields
// (maskSlotResolver, dispatch.go). Each test binds a name in two scopes
// and asserts the firings only that order gives. The dotted field
// through a reference is TestCrossObjectMaskFieldAccess's input, a mask
// calling a read method TestMaskReadMethodAndGlobalFunc's.

// scopeCase is one posting on a fresh account (balance 600): trig
// activated with act, then method called with arg, in one transaction.
type scopeCase struct {
	act    []value.Value
	method string
	arg    value.Value
	want   int // firings
}

// checkScope runs the cases against accountClass with trig and an
// extra read method audit(balance int), whose parameter is named like
// the field.
func checkScope(t *testing.T, trig schema.Trigger, cases ...scopeCase) {
	t.Helper()
	rec := &recorder{}
	cls, impl := accountClass(rec, trig)
	cls.Methods = append(cls.Methods, schema.Method{Name: "audit",
		Params: []schema.Param{{Name: "balance", Kind: value.KindInt}}, Mode: schema.ModeRead})
	impl.Methods["audit"] = func(*MethodCtx) (value.Value, error) { return value.Null(), nil }
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		before := rec.count()
		err := e.Transact(func(tx *Tx) error {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(600)})
			if err != nil {
				return err
			}
			if err := tx.Activate(oid, trig.Name, c.act...); err != nil {
				return err
			}
			_, err = tx.Call(oid, c.method, c.arg)
			return err
		})
		if err != nil {
			t.Fatalf("%s: activated with %v, %s(%s): %v", trig.Event, c.act, c.method, c.arg, err)
		}
		if got := rec.count() - before; got != c.want {
			t.Errorf("%s: activated with %v, %s(%s): %d firings, want %d",
				trig.Event, c.act, c.method, c.arg, got, c.want)
		}
	}
}

func intParams(names ...string) []schema.Param {
	ps := make([]schema.Param, len(names))
	for i, n := range names {
		ps[i] = schema.Param{Name: n, Kind: value.KindInt}
	}
	return ps
}

// TestMaskEventParamShadowsTriggerParam: withdraw's parameter and the
// trigger's are both named amount; the mask reads the happening's.
func TestMaskEventParamShadowsTriggerParam(t *testing.T) {
	checkScope(t, schema.Trigger{Name: "Big", Perpetual: true, Params: intParams("amount"),
		Event: "after withdraw && amount > 150"},
		scopeCase{[]value.Value{value.Int(100)}, "withdraw", value.Int(200), 1},
		scopeCase{[]value.Value{value.Int(300)}, "withdraw", value.Int(100), 0},
	)
}

// TestMaskFormalRenames: a declared formal names withdraw's amount, and
// wins over a trigger parameter and a field of its own name.
func TestMaskFormalRenames(t *testing.T) {
	checkScope(t, schema.Trigger{Name: "OverTrig", Perpetual: true, Params: intParams("x"),
		Event: "after withdraw(x) && x > 150"},
		scopeCase{[]value.Value{value.Int(100)}, "withdraw", value.Int(200), 1},
		scopeCase{[]value.Value{value.Int(300)}, "withdraw", value.Int(100), 0},
	)
	checkScope(t, schema.Trigger{Name: "OverField", Perpetual: true,
		Event: "after withdraw(balance) && balance > 150"},
		scopeCase{nil, "withdraw", value.Int(200), 1}, // the field reads 400
		scopeCase{nil, "withdraw", value.Int(100), 0}, // and 500
	)
}

// TestMaskParamShadowsField: a trigger parameter and a method parameter
// named balance each hide the field balance (600 and more here).
func TestMaskParamShadowsField(t *testing.T) {
	checkScope(t, schema.Trigger{Name: "Low", Perpetual: true, Params: intParams("balance"),
		Event: "after deposit && balance < 50"},
		scopeCase{[]value.Value{value.Int(10)}, "deposit", value.Int(5), 1},
		scopeCase{[]value.Value{value.Int(100)}, "deposit", value.Int(5), 0},
	)
	checkScope(t, schema.Trigger{Name: "Audit", Perpetual: true,
		Event: "after audit && balance < 50"},
		scopeCase{nil, "audit", value.Int(10), 1},
		scopeCase{nil, "audit", value.Int(100), 0},
	)
}

// TestMaskBitsAreTheTriggersOwn: two triggers' masks share a kind, so
// each posting valuates two bits, but a trigger's symbol carries only
// the bits of its own masks — the rest stay zero (what Explain shows
// per step) — and only those masks are evaluated.
func TestMaskBitsAreTheTriggersOwn(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Over100", Perpetual: true, Event: "after deposit(n) && n > 100"},
		schema.Trigger{Name: "Over200", Perpetual: true, Event: "after deposit(n) && n > 200"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Over100", "Over200")
	evals := e.Stats().MaskEvals
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(250))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.list(); len(got) != 2 {
		t.Fatalf("firings %v, want both", got)
	}
	if n := e.Stats().MaskEvals - evals; n != 2 {
		t.Errorf("%d mask evaluations, want one per trigger", n)
	}
	for name, bits := range map[string]uint32{"Over100": 1 << 0, "Over200": 1 << 1} {
		ex, err := e.Explain(name, oid)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Steps) != 1 || ex.Steps[0].Bits != bits {
			t.Errorf("%s: steps %+v, want one with bits %b", name, ex.Steps, bits)
		}
	}
}

// TestMaskConstantErrorSurfacesAtPosting: a constant subtree whose
// evaluation errors is left to run, so its error aborts the posting
// transaction as it would unfolded.
func TestMaskConstantErrorSurfacesAtPosting(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Inf", Perpetual: true, Event: "after deposit(n) && n == 1 / 0"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Inf")
	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "trigger Inf mask: value: integer division by zero") {
		t.Fatalf("posting error %v, want the mask's division by zero", err)
	}
}
