package engine

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// recorder collects trigger firings for assertions.
type recorder struct {
	mu    sync.Mutex
	fires []string
}

func (r *recorder) add(s string) {
	r.mu.Lock()
	r.fires = append(r.fires, s)
	r.mu.Unlock()
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.fires))
	copy(out, r.fires)
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fires)
}

// field reads a field of a record the caller may read (a committed
// image or a snapshot); null if the object has none so named.
func field(r *store.Record, name string) value.Value {
	v, _ := r.Field(name)
	return v
}

// accountClass builds a bank-account class with the given triggers and
// a recorder-backed action for each.
func accountClass(rec *recorder, triggers ...schema.Trigger) (*schema.Class, ClassImpl) {
	cls := &schema.Class{
		Name: "account",
		Fields: []schema.Field{
			{Name: "balance", Kind: value.KindInt, Default: value.Int(0)},
			{Name: "owner", Kind: value.KindString},
		},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "amount", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "amount", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "getBalance", Mode: schema.ModeRead},
		},
		Triggers: triggers,
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"deposit": func(ctx *MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()+ctx.Arg("amount").AsInt()))
			},
			"withdraw": func(ctx *MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()-ctx.Arg("amount").AsInt()))
			},
			"getBalance": func(ctx *MethodCtx) (value.Value, error) {
				return ctx.Get("balance")
			},
		},
		Actions: map[string]ActionFunc{},
	}
	for _, tr := range triggers {
		name := tr.Name
		impl.Actions[name] = func(ctx *ActionCtx) error {
			rec.add(name)
			return nil
		}
	}
	return cls, impl
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// stepOne posts h to an accessed object straight through Tx.step, the
// way every one-at-a-time caller does: the class's phase for the kind,
// every trigger, no meter.
func (tx *Tx) stepOne(oid store.OID, rec *store.Record, h event.Happening) (bool, error) {
	c, err := tx.e.classOf(rec)
	if err != nil {
		return false, err
	}
	ph, err := c.phaseOf(h.Kind)
	if err != nil {
		return false, err
	}
	return tx.step(c, ph, oid, rec, &h, nil, nil)
}

// setup registers the class and creates one activated account.
func setup(t *testing.T, e *Engine, cls *schema.Class, impl ClassImpl, activate ...string) store.OID {
	t.Helper()
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oid store.OID
	err := e.Transact(func(tx *Tx) error {
		var err error
		oid, err = tx.NewObject("account", map[string]value.Value{"balance": value.Int(1000)})
		if err != nil {
			return err
		}
		for _, trig := range activate {
			if err := tx.Activate(oid, trig); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestMaskedMethodTriggerFires(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Large")

	err := e.Transact(func(tx *Tx) error {
		if _, err := tx.Call(oid, "withdraw", value.Int(50)); err != nil {
			return err
		}
		if _, err := tx.Call(oid, "withdraw", value.Int(500)); err != nil {
			return err
		}
		_, err := tx.Call(oid, "deposit", value.Int(500))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.list(); len(got) != 1 || got[0] != "Large" {
		t.Fatalf("fires = %v", got)
	}
	// Balance reflects all three calls.
	var bal value.Value
	e.Transact(func(tx *Tx) error {
		var err error
		bal, err = tx.Call(oid, "getBalance")
		return err
	})
	if bal.AsInt() != 950 {
		t.Fatalf("balance = %v", bal)
	}
}

func TestOrdinaryTriggerDeactivatesOnFire(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Once", Event: "after deposit"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Once")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("ordinary trigger fired %d times", rec.count())
	}
	// Re-activation re-arms it.
	e.Transact(func(tx *Tx) error {
		if err := tx.Activate(oid, "Once"); err != nil {
			return err
		}
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 2 {
		t.Fatalf("after re-activation fired %d times", rec.count())
	}
}

func TestInactiveTriggerSeesNothing(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl) // not activated

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 0 {
		t.Fatalf("inactive trigger fired %d times", rec.count())
	}
	// History starts at activation: a sequence needing deposit-then-
	// withdraw must not count a pre-activation deposit.
	cls2, impl2 := accountClass(&recorder{},
		schema.Trigger{Name: "Seq", Perpetual: true, Event: "relative(after deposit, after withdraw)"})
	cls2.Name = "account2"
	rec2 := &recorder{}
	impl2.Actions["Seq"] = func(*ActionCtx) error { rec2.add("Seq"); return nil }
	if _, err := e.RegisterClass(cls2, impl2, nil); err != nil {
		t.Fatal(err)
	}
	var oid2 store.OID
	e.Transact(func(tx *Tx) error {
		oid2, _ = tx.NewObject("account2", nil)
		tx.Call(oid2, "deposit", value.Int(1)) // before activation
		tx.Activate(oid2, "Seq")
		tx.Call(oid2, "withdraw", value.Int(1)) // no deposit since activation
		return nil
	})
	if rec2.count() != 0 {
		t.Fatal("trigger observed pre-activation events")
	}
	e.Transact(func(tx *Tx) error {
		tx.Call(oid2, "deposit", value.Int(1))
		tx.Call(oid2, "withdraw", value.Int(1))
		return nil
	})
	if rec2.count() != 1 {
		t.Fatalf("post-activation sequence fired %d times", rec2.count())
	}
}

func TestTabortActionAbortsTransaction(t *testing.T) {
	// The paper's T1: unauthorized withdrawals abort the transaction.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T1", Perpetual: true, Event: "before withdraw && !authorized(user())"})
	authorized := true
	impl.Funcs = map[string]MaskFunc{
		"authorized": func(args []value.Value) (value.Value, error) {
			return value.Bool(args[0].AsString() == "alice"), nil
		},
	}
	impl.Actions["T1"] = func(ctx *ActionCtx) error { return ctx.Tabort() }
	e := newEngine(t, Options{})
	currentUser := "alice"
	e.RegisterFunc("user", func([]value.Value) (value.Value, error) {
		return value.Str(currentUser), nil
	})
	oid := setup(t, e, cls, impl, "T1")

	// Authorized withdrawal goes through.
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(100))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Unauthorized: tabort fires BEFORE the method body runs.
	currentUser = "mallory"
	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(100))
		return err
	})
	if !errors.Is(err, ErrTabort) {
		t.Fatalf("err = %v, want ErrTabort", err)
	}
	r, _ := e.Store().Get(oid)
	if !field(r, "balance").Equal(value.Int(900)) {
		t.Fatalf("balance = %v, want 900 (only the authorized withdrawal)", field(r, "balance"))
	}
	_ = authorized
}

func TestSequenceTriggerT8(t *testing.T) {
	// Print the log when a deposit is immediately followed by a
	// withdrawal (T8: after deposit; before withdraw; after withdraw).
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T8", Perpetual: true, Event: "after deposit; before withdraw; after withdraw"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "T8")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		tx.Call(oid, "withdraw", value.Int(1)) // immediately follows → fires
		tx.Call(oid, "deposit", value.Int(1))
		tx.Call(oid, "getBalance") // interloper breaks adjacency
		tx.Call(oid, "withdraw", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("T8 fired %d times, want 1", rec.count())
	}
}

func TestAfterTbeginPostedOnFirstAccess(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "TB", Perpetual: true, Event: "after tbegin"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "TB")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "getBalance")
		tx.Call(oid, "getBalance") // same transaction: no second tbegin
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("TB fired %d times in one transaction", rec.count())
	}
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "getBalance")
		return nil
	})
	if rec.count() != 2 {
		t.Fatalf("TB fired %d times after two transactions", rec.count())
	}
}

func TestDeferredCouplingViaFa(t *testing.T) {
	// Immediate-Deferred (§7): fa(E, before tcomplete, after tbegin)
	// runs the action once, at commit time.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Def", Perpetual: true,
			Event: "fa(after withdraw(a) && a > 100, before tcomplete, after tbegin)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Def")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(500))
		if rec.count() != 0 {
			t.Error("deferred action ran before commit")
		}
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("deferred action ran %d times", rec.count())
	}
	// A transaction without the event does not fire it.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("deferred action ran %d times after unrelated tx", rec.count())
	}
}

func TestTcompleteFixpointDivergenceDetected(t *testing.T) {
	// A perpetual trigger on bare "before tcomplete" fires on every
	// fixpoint round: the paper's loop never quiesces.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Loop", Perpetual: true, Event: "before tcomplete"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl)

	err := e.Transact(func(tx *Tx) error {
		if err := tx.Activate(oid, "Loop"); err != nil {
			return err
		}
		_, err := tx.Call(oid, "deposit", value.Int(1))
		return err
	})
	if !errors.Is(err, ErrTcompleteDiverged) {
		t.Fatalf("err = %v, want ErrTcompleteDiverged", err)
	}
	// The diverged transaction aborted: deposit rolled back.
	r, _ := e.Store().Get(oid)
	if !field(r, "balance").Equal(value.Int(1000)) {
		t.Fatalf("balance = %v", field(r, "balance"))
	}
}

func TestAfterTcommitRunsInSystemTransaction(t *testing.T) {
	// Immediate-Dependent (§7): fa(E, after tcommit, after tbegin).
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Dep", Perpetual: true,
			Event: "fa(after withdraw, after tcommit, after tbegin)"})
	var sawSystem bool
	impl.Actions["Dep"] = func(ctx *ActionCtx) error {
		rec.add("Dep")
		sawSystem = ctx.Tx.Underlying().System()
		return nil
	}
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Dep")

	e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(10))
		return err
	})
	if rec.count() != 1 {
		t.Fatalf("Dep fired %d times", rec.count())
	}
	if !sawSystem {
		t.Fatal("after-tcommit action did not run in a system transaction")
	}
	// An aborted transaction must not fire it.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(10))
		return errors.New("force abort")
	})
	if rec.count() != 1 {
		t.Fatalf("Dep fired %d times after aborted tx", rec.count())
	}
}

func TestCommittedViewRollsBackOnAbort(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Two", Perpetual: true, Event: "relative(after withdraw, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Two")

	// First withdraw inside an aborted transaction.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return errors.New("abort")
	})
	// Second withdraw in a committed transaction: for the committed
	// view this is the FIRST withdraw, so the trigger must not fire.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return nil
	})
	if rec.count() != 0 {
		t.Fatalf("committed-view trigger counted an aborted withdraw (%d fires)", rec.count())
	}
	// A second committed withdraw completes the pair.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("fires = %d", rec.count())
	}
}

func TestWholeViewSurvivesAbort(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Two", Perpetual: true, Event: "relative(after withdraw, after withdraw)", View: schema.WholeView})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Two")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return errors.New("abort")
	})
	// Whole view keeps the aborted withdraw: this one is the second.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("whole-view trigger fired %d times, want 1", rec.count())
	}
}

// TestWholeViewStateDiesWithItsObject: whole-view automaton state lives
// in the record, so it goes where the record goes — away with the abort
// of the transaction that created the object (which keeps nothing and
// publishes nothing), away when the object's deletion commits, and on
// across an aborted deletion, which the whole view has seen.
func TestWholeViewStateDiesWithItsObject(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Two", Perpetual: true, Event: "relative(after withdraw, after withdraw)", View: schema.WholeView})
	e := newEngine(t, Options{})
	chk := attachChecker(e, 1<<10)
	oid := setup(t, e, cls, impl, "Two")
	two := e.Class("account").Trigger("Two")
	slot, start := two.slot, int32(two.Auto.Start())
	// committed reads the instance from the store's committed view.
	committed := func(o store.OID) (store.TrigState, bool) {
		rec, ok := e.st.GetCommitted(o)
		if !ok {
			return store.TrigState{}, false
		}
		return rec.Trig(slot), true
	}

	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "withdraw", value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := committed(oid)
	if before.State == start {
		t.Fatal("one committed withdraw left the instance in its start state")
	}

	tx := e.Begin()
	o, err := tx.NewObject("account", nil)
	if err == nil {
		err = tx.Activate(o, "Two")
	}
	if err == nil {
		_, err = tx.Call(o, "withdraw", value.Int(1))
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := e.st.Get(o); err != nil || rec.Trigs[slot].State == start {
		t.Fatalf("inside the creating transaction the instance did not move: %v", err)
	}
	epoch := e.st.Epoch()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := committed(o); ok || e.st.Exists(o) {
		t.Fatal("an aborted creation left the object behind")
	}
	if e.st.Epoch() != epoch {
		t.Fatal("an aborted creation published something")
	}
	if got, _ := committed(oid); !reflect.DeepEqual(got, before) {
		t.Fatalf("an aborted creation changed another object's instance: %+v, was %+v", got, before)
	}

	tx = e.Begin()
	if _, err := tx.Call(oid, "withdraw", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	after, ok := committed(oid)
	if !ok || !after.Active || after.State == before.State {
		t.Fatalf("an aborted deletion did not keep what the whole view saw of it: %+v, was %+v", after, before)
	}
	checkTrace(t, chk, e)

	if err := e.Transact(func(tx *Tx) error { return tx.DeleteObject(oid) }); err != nil {
		t.Fatal(err)
	}
	if _, ok := committed(oid); ok || e.st.Exists(oid) {
		t.Fatal("a committed deletion left the object behind")
	}
}

func TestAfterTabortTrigger(t *testing.T) {
	// "If the ratio of aborts to commits exceeds..." (§6): whole-view
	// triggers can observe aborts.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Ab", Perpetual: true, Event: "after tabort", View: schema.WholeView})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Ab")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return errors.New("boom")
	})
	if rec.count() != 1 {
		t.Fatalf("Ab fired %d times", rec.count())
	}
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("Ab fired on commit (%d)", rec.count())
	}
}

func TestChooseCountsAcrossTransactions(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Fifth", Perpetual: true, Event: "choose 5 (after tcommit)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Fifth")

	for i := 0; i < 8; i++ {
		e.Transact(func(tx *Tx) error {
			tx.Call(oid, "deposit", value.Int(1))
			return nil
		})
	}
	if rec.count() != 1 {
		t.Fatalf("choose 5 fired %d times over 8 commits", rec.count())
	}
}

func TestEveryOperator(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T5", Perpetual: true, Event: "every 3 (after access)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "T5")

	e.Transact(func(tx *Tx) error {
		for i := 0; i < 7; i++ {
			tx.Call(oid, "getBalance")
		}
		return nil
	})
	// 7 accesses → fires at the 3rd and 6th.
	if rec.count() != 2 {
		t.Fatalf("every 3 fired %d times over 7 accesses", rec.count())
	}
}

func TestStateShorthandTrigger(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Low", Perpetual: true, Event: "balance < 500"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Low")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(300)) // 700: no fire
		return nil
	})
	if rec.count() != 0 {
		t.Fatal("fired above threshold")
	}
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(300)) // 400: fire
		tx.Call(oid, "withdraw", value.Int(100)) // 300: fire again (perpetual)
		return nil
	})
	if rec.count() != 2 {
		t.Fatalf("fires = %d, want 2", rec.count())
	}
}

func TestTriggerParamsInMask(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true,
			Params: []schema.Param{{Name: "lvl", Kind: value.KindInt}},
			Event:  "after withdraw(a) && a > lvl"})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var a, b store.OID
	e.Transact(func(tx *Tx) error {
		a, _ = tx.NewObject("account", map[string]value.Value{"balance": value.Int(1000)})
		b, _ = tx.NewObject("account", map[string]value.Value{"balance": value.Int(1000)})
		tx.Activate(a, "Big", value.Int(100))
		tx.Activate(b, "Big", value.Int(500))
		return nil
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(a, "withdraw", value.Int(200)) // > 100 → fires
		tx.Call(b, "withdraw", value.Int(200)) // ≤ 500 → no fire
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("fires = %d: per-activation parameters leaked", rec.count())
	}
}

func TestCrossObjectMaskFieldAccess(t *testing.T) {
	// T2-style: the mask reads another object's state via a reference
	// parameter (i.balance < threshold).
	rec := &recorder{}
	cls := &schema.Class{
		Name: "stockRoom",
		Fields: []schema.Field{
			{Name: "name", Kind: value.KindString},
		},
		Methods: []schema.Method{
			{Name: "withdraw", Params: []schema.Param{
				{Name: "item", Kind: value.KindID}, {Name: "qty", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "T2", Perpetual: true, Event: "after withdraw(i, q) && i.stock < 10"},
		},
	}
	itemCls := &schema.Class{
		Name: "item",
		Fields: []schema.Field{
			{Name: "stock", Kind: value.KindInt},
		},
		Methods: []schema.Method{
			{Name: "take", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
	}
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(itemCls, ClassImpl{Methods: map[string]MethodImpl{
		"take": func(ctx *MethodCtx) (value.Value, error) {
			s, _ := ctx.Get("stock")
			return value.Null(), ctx.Set("stock", value.Int(s.AsInt()-ctx.Arg("n").AsInt()))
		},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{
			"withdraw": func(ctx *MethodCtx) (value.Value, error) {
				_, err := ctx.Tx.Call(store.OID(ctx.Arg("item").AsID()), "take", ctx.Arg("qty"))
				return value.Null(), err
			},
		},
		Actions: map[string]ActionFunc{
			"T2": func(ctx *ActionCtx) error { rec.add("T2"); return nil },
		},
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var room, item store.OID
	e.Transact(func(tx *Tx) error {
		item, _ = tx.NewObject("item", map[string]value.Value{"stock": value.Int(20)})
		room, _ = tx.NewObject("stockRoom", nil)
		return tx.Activate(room, "T2")
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(room, "withdraw", value.ID(uint64(item)), value.Int(5)) // stock 15: no fire
		return nil
	})
	if rec.count() != 0 {
		t.Fatal("fired with stock above threshold")
	}
	e.Transact(func(tx *Tx) error {
		tx.Call(room, "withdraw", value.ID(uint64(item)), value.Int(8)) // stock 7: fire
		return nil
	})
	if rec.count() != 1 {
		t.Fatalf("fires = %d", rec.count())
	}
}

func TestTimeEventAt(t *testing.T) {
	// T3: at the end of the day, print a summary.
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T3", Perpetual: true, Event: "at time(HR=17)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl, "T3")

	e.Clock().Advance(8 * time.Hour) // 16:00
	if rec.count() != 0 {
		t.Fatal("fired early")
	}
	e.Clock().Advance(2 * time.Hour) // 18:00 — 17:00 passed
	if rec.count() != 1 {
		t.Fatalf("fires = %d", rec.count())
	}
	e.Clock().Advance(24 * time.Hour) // next day's 17:00
	if rec.count() != 2 {
		t.Fatalf("daily recurrence: fires = %d", rec.count())
	}
	// Deactivation stops it.
	e.Transact(func(tx *Tx) error { return tx.Deactivate(oid, "T3") })
	e.Clock().Advance(24 * time.Hour)
	if rec.count() != 2 {
		t.Fatalf("fired after deactivation: %d", rec.count())
	}
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
}

func TestTimeEventEveryAndAfter(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Periodic", Perpetual: true, Event: "every time(M=10)"},
		schema.Trigger{Name: "Delayed", Event: "after time(HR=2, M=30)"})
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	oid := setup(t, e, cls, impl, "Periodic", "Delayed")
	_ = oid

	e.Clock().Advance(35 * time.Minute)
	periodic := 0
	for _, f := range rec.list() {
		if f == "Periodic" {
			periodic++
		}
	}
	if periodic != 3 {
		t.Fatalf("periodic fires = %d, want 3", periodic)
	}
	e.Clock().Advance(3 * time.Hour) // passes the 2h30m delay
	delayed := 0
	for _, f := range rec.list() {
		if f == "Delayed" {
			delayed++
		}
	}
	if delayed != 1 {
		t.Fatalf("delayed fires = %d", delayed)
	}
	e.Clock().Advance(5 * time.Hour) // one-shot: no refire
	delayed = 0
	for _, f := range rec.list() {
		if f == "Delayed" {
			delayed++
		}
	}
	if delayed != 1 {
		t.Fatalf("delayed refired: %d", delayed)
	}
}

func TestTimedTriggerViaCompositeEvent(t *testing.T) {
	// Footnote 1: "timed triggers can be simulated using composite
	// events" — a summary after the first large withdrawal of each day
	// (T7-like: fa(dayBegin, large, dayBegin)).
	rec := &recorder{}
	ps := evlang.NewParser()
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "T7", Perpetual: true, Event: "fa(dayBegin, after withdraw(a) && a > 100, dayBegin)"})
	if err := ps.Define("dayBegin", "at time(HR=9)"); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if _, err := e.RegisterClass(cls, impl, ps); err != nil {
		t.Fatal(err)
	}
	var oid store.OID
	e.Transact(func(tx *Tx) error {
		oid, _ = tx.NewObject("account", map[string]value.Value{"balance": value.Int(10000)})
		return tx.Activate(oid, "T7")
	})

	withdraw := func(n int64) {
		e.Transact(func(tx *Tx) error {
			_, err := tx.Call(oid, "withdraw", value.Int(n))
			return err
		})
	}
	withdraw(500) // before 9:00 — outside any day window
	if rec.count() != 0 {
		t.Fatal("fired before dayBegin")
	}
	e.Clock().Advance(2 * time.Hour) // 10:00, day window open
	withdraw(50)                     // small: no fire
	withdraw(500)                    // first large withdrawal today → fire
	withdraw(800)                    // not the first → no fire
	if rec.count() != 1 {
		t.Fatalf("fires = %d, want 1", rec.count())
	}
	e.Clock().Advance(24 * time.Hour) // next day's 9:00 passed
	withdraw(500)                     // first large of the new day → fire
	if rec.count() != 2 {
		t.Fatalf("fires = %d, want 2", rec.count())
	}
}

func TestPersistenceAndRearm(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	build := func() (*Engine, *schema.Class, ClassImpl) {
		cls, impl := accountClass(rec,
			schema.Trigger{Name: "Low", Perpetual: true, Event: "balance < 500"},
			schema.Trigger{Name: "T3", Perpetual: true, Event: "at time(HR=17)"})
		return nil, cls, impl
	}
	_, cls, impl := build()
	e, err := New(Options{Dir: dir, Start: time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var oid store.OID
	e.Transact(func(tx *Tx) error {
		oid, _ = tx.NewObject("account", map[string]value.Value{"balance": value.Int(600)})
		tx.Activate(oid, "Low")
		tx.Activate(oid, "T3")
		return nil
	})
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(50)) // 550: no fire, but advances nothing
		return nil
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: activations (and automaton states) are durable.
	_, cls2, impl2 := build()
	e2, err := New(Options{Dir: dir, Start: time.Date(2026, 7, 5, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := e2.RegisterClass(cls2, impl2, nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.RearmTimers(); err != nil {
		t.Fatal(err)
	}
	e2.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(100)) // 450 → Low fires
		return nil
	})
	found := false
	for _, f := range rec.list() {
		if f == "Low" {
			found = true
		}
	}
	if !found {
		t.Fatal("Low did not fire after reopen")
	}
	e2.Clock().Advance(12 * time.Hour) // 20:00 — rearmed T3 fires
	foundT3 := false
	for _, f := range rec.list() {
		if f == "T3" {
			foundT3 = true
		}
	}
	if !foundT3 {
		t.Fatal("T3 timer not rearmed after reopen")
	}
}

func TestValidationErrors(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl)

	err := e.Transact(func(tx *Tx) error {
		_, err := tx.NewObject("nosuch", nil)
		return err
	})
	if err == nil {
		t.Fatal("NewObject of unknown class succeeded")
	}
	cases := []func(tx *Tx) error{
		func(tx *Tx) error {
			_, e := tx.NewObject("account", map[string]value.Value{"x": value.Int(1)})
			return e
		},
		func(tx *Tx) error {
			_, e := tx.NewObject("account", map[string]value.Value{"balance": value.Str("x")})
			return e
		},
		func(tx *Tx) error { _, e := tx.Call(oid, "nosuch"); return e },
		func(tx *Tx) error { _, e := tx.Call(oid, "deposit"); return e },
		func(tx *Tx) error { _, e := tx.Call(oid, "deposit", value.Str("x")); return e },
		func(tx *Tx) error { _, e := tx.Get(oid, "nosuch"); return e },
		func(tx *Tx) error { return tx.Set(oid, "nosuch", value.Int(1)) },
		func(tx *Tx) error { return tx.Set(oid, "balance", value.Str("x")) },
		func(tx *Tx) error { return tx.Activate(oid, "nosuch") },
		func(tx *Tx) error { return tx.Deactivate(oid, "nosuch") },
	}
	for i, fn := range cases {
		if err := e.Transact(fn); err == nil {
			t.Errorf("case %d succeeded, want error", i)
		}
	}
}

func TestRegisterClassErrors(t *testing.T) {
	rec := &recorder{}
	e := newEngine(t, Options{})
	// Missing method implementation.
	cls, impl := accountClass(rec)
	impl.Methods = map[string]MethodImpl{}
	if _, err := e.RegisterClass(cls, impl, nil); err == nil {
		t.Fatal("missing method impl accepted")
	}
	// Unbound trigger action.
	cls2, impl2 := accountClass(rec, schema.Trigger{Name: "T", Event: "after deposit"})
	delete(impl2.Actions, "T")
	if _, err := e.RegisterClass(cls2, impl2, nil); err == nil {
		t.Fatal("unbound action accepted")
	}
	// Duplicate registration.
	cls3, impl3 := accountClass(rec)
	if _, err := e.RegisterClass(cls3, impl3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterClass(cls3, impl3, nil); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestDeleteObjectPostsBeforeDelete(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Del", Perpetual: true, Event: "before delete"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Del")

	e.Transact(func(tx *Tx) error { return tx.DeleteObject(oid) })
	if rec.count() != 1 {
		t.Fatalf("Del fired %d times", rec.count())
	}
	if e.Store().Exists(oid) {
		t.Fatal("object survived delete")
	}
}

func TestAbortRestoresDeletedObjectAndTriggerState(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Two", Perpetual: true, Event: "relative(after deposit, after deposit)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Two")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		tx.DeleteObject(oid)
		return errors.New("abort")
	})
	if !e.Store().Exists(oid) {
		t.Fatal("aborted delete not undone")
	}
	// The aborted deposit must not count.
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	if rec.count() != 0 {
		t.Fatal("aborted deposit counted by committed-view trigger")
	}
}

func TestTriggerStateIntrospection(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Seq", Perpetual: true, Event: "relative(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Seq")

	_, active, err := e.TriggerState(oid, "Seq")
	if err != nil || !active {
		t.Fatalf("state: active=%v err=%v", active, err)
	}
	if _, _, err := e.TriggerState(oid, "nosuch"); err == nil {
		t.Fatal("unknown trigger introspection succeeded")
	}
	if _, _, err := e.TriggerState(999, "Seq"); err == nil {
		t.Fatal("unknown object introspection succeeded")
	}
}

func TestHistoryRecording(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	e.EnableTracing(0)
	oid := setup(t, e, cls, impl)

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	log, err := e.History(oid)
	if err != nil {
		t.Fatal(err)
	}
	// create + (tbegin, before deposit, after deposit, tcomplete ×1,
	// tcommit ×2 transactions) — at least 6 entries.
	if len(log) < 6 {
		t.Fatalf("history has %d entries", len(log))
	}
}

func TestTransactExplicitFinish(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec)
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl)

	// Explicit commit inside Transact is respected.
	if err := e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(5))
		return tx.Commit()
	}); err != nil {
		t.Fatal(err)
	}
	// Explicit abort then nil error: Transact returns nil, effects gone.
	if err := e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(7))
		return tx.Abort()
	}); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Store().Get(oid)
	if !field(r, "balance").Equal(value.Int(1005)) {
		t.Fatalf("balance = %v", field(r, "balance"))
	}
	// Double commit errors.
	tx := e.Begin()
	tx.Commit()
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit succeeded")
	}
}
