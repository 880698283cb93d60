package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestHotPathAllocBudget pins the PR's allocation contract: posting a
// masked happening that does not fire allocates zero heap objects on
// the volatile path (compiled mask program, dense trigger slot, no
// firing scratch).
func TestHotPathAllocBudget(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Big")

	tx := e.Begin()
	defer tx.Abort()
	r, err := tx.access(oid)
	if err != nil {
		t.Fatal(err)
	}
	h := event.Happening{
		Kind:   event.MethodKind(event.After, "deposit"),
		Params: []value.Value{value.Int(1)},
		TxID:   tx.ID(),
		At:     e.clk.Now(),
	}
	avg := testing.AllocsPerRun(500, func() {
		fired, err := tx.stepOne(oid, r, h)
		if err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatal("mask n > 100 must not pass for n = 1")
		}
	})
	if avg != 0 {
		t.Fatalf("masked non-firing happening allocates %.2f objects/op; want 0", avg)
	}
	if rec.count() != 0 {
		t.Fatalf("no trigger should have fired, got %v", rec.list())
	}
	// The flight recorder is always on: the loop above recorded one
	// event per happening without breaking the budget.
	if e.flight.Total() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
}

// TestHotPathAllocBudgetProvenance extends the contract to
// state-changing non-firing steps: with firing provenance on (the
// default), a composite trigger bouncing between states appends to its
// shard's provenance journal on every transition and must still
// allocate nothing.
func TestHotPathAllocBudgetProvenance(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		// sequence(E, F): a deposit moves to the "just saw E" state; a
		// withdraw failing its mask is neither E nor F and resets. Every
		// happening below is a state change → a provenance append.
		schema.Trigger{Name: "Chain", Perpetual: true,
			Event: "sequence(after deposit, after withdraw(a) && a > 100)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Chain")

	tx := e.Begin()
	defer tx.Abort()
	r, err := tx.access(oid)
	if err != nil {
		t.Fatal(err)
	}
	dep := event.Happening{
		Kind:   event.MethodKind(event.After, "deposit"),
		Params: []value.Value{value.Int(1)},
		TxID:   tx.ID(),
		At:     e.clk.Now(),
	}
	wd := dep
	wd.Kind = event.MethodKind(event.After, "withdraw")
	bounce := func() {
		for _, h := range [2]event.Happening{dep, wd} {
			fired, err := tx.stepOne(oid, r, h)
			if err != nil {
				t.Fatal(err)
			}
			if fired {
				t.Fatal("withdraw(1) must not complete the sequence")
			}
		}
	}
	// The shard's journal is born at the first step and doubles up to
	// its cap; the budget is for a journal that has wrapped.
	sh, full := e.provShardOf(oid), obs.DefaultProvenanceBytes>>provShardBits/obs.ProvCellBytes*obs.ProvCellBytes
	for sh.j.Bytes() < full {
		bounce()
	}
	for i := 0; i < full/obs.ProvCellBytes; i++ {
		bounce()
	}
	avg := testing.AllocsPerRun(500, bounce)
	if avg != 0 {
		t.Fatalf("state-changing non-firing steps allocate %.2f objects/op; want 0", avg)
	}
	if ex, err := e.Explain("Chain", oid); err != nil || !ex.Truncated || e.Stats().ProvenanceSteps < 1000 {
		t.Fatalf("provenance did not record the state churn past the journal's cap (%+v, %v)", ex, err)
	}
	if rec.count() != 0 {
		t.Fatalf("no trigger should have fired, got %v", rec.list())
	}
}

// eightTriggers is one trigger per event form of the paper's §3 plus
// one over transaction events (whose state moves at tbegin and tcommit,
// so every transaction changes every object it touches twice). Masks
// reject the amounts wholeTx posts.
func eightTriggers() []schema.Trigger {
	dep, wdr := "after deposit(n) && n > 1000000", "after withdraw(n) && n > 1000000"
	return []schema.Trigger{
		{Name: "Big", Perpetual: true, Event: dep},
		{Name: "Rel", Perpetual: true, Event: "relative(" + dep + ", " + wdr + ")"},
		{Name: "Prior", Perpetual: true, Event: "prior(" + wdr + ", " + dep + ")"},
		{Name: "Seq", Perpetual: true, Event: "before withdraw(n) && n > 1000000; after withdraw"},
		{Name: "Choose3", Perpetual: true, Event: "choose 3 (" + dep + ")"},
		{Name: "Every5", Perpetual: true, Event: "every 5 (" + wdr + ")"},
		{Name: "Fa", Perpetual: true, Event: "fa(" + dep + ", " + wdr + ", after tcommit)"},
		{Name: "TxFirst", Perpetual: true, Event: "fa(after tbegin, " + dep + ", after tcommit)", View: schema.CommittedView},
	}
}

// wholeTxSetup commits n accounts with the eight triggers active and
// returns a function running one whole transaction: four Calls over
// four distinct objects, begin to commit, after-tcommit system
// transaction included.
func wholeTxSetup(t testing.TB, n int, opts Options) func(i int) {
	t.Helper()
	triggers := eightTriggers()
	cls, impl := accountClass(&recorder{}, triggers...)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	err = e.Transact(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			for _, tr := range triggers {
				if err := tx.Activate(oid, tr.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	methods := [2]string{"deposit", "withdraw"}
	return func(i int) {
		tx := e.Begin()
		for k := 0; k < 4; k++ {
			oid := store.OID((i*4+k)%n + 1)
			if _, err := tx.Call(oid, methods[(i+k)&1], value.Int(int64(k+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWholeTxAllocBudget bounds what the budgets above never see: the
// first access to each object and the commit. A 4-Call transaction over
// 4 distinct 8-trigger objects, its after-tcommit outcome phase
// included, measures 14 allocations (28 when the outcome was a second
// system transaction that built its own images; with per-call bound
// maps and contexts and per-transaction seen / held-lock maps: 51; the
// name-keyed activation maps before that: 75; record cloning before
// that: 402). What is left is state: per object one new image (Record,
// Fields map, one Trigs slice) — 12 — and the transaction's engine.Tx
// and txn.Tx — 2. A call, an access, a commit and its outcome allocate
// nothing of their own, so the lock manager and the single-writer path
// measure the same.
func TestWholeTxAllocBudget(t *testing.T) {
	const budget = 20 // measured 14; slack for map-implementation differences between Go releases
	var got [2]float64
	for k, single := range [2]bool{false, true} {
		run := wholeTxSetup(t, 64, Options{SingleWriter: single})
		i := 0
		for ; i < 32; i++ { // every object past its first provenance allocation
			run(i)
		}
		got[k] = testing.AllocsPerRun(200, func() { run(i); i++ })
		if got[k] > budget {
			t.Errorf("whole 4-call transaction (single-writer %v) allocates %.1f objects; budget %d", single, got[k], budget)
		}
		t.Logf("whole 4-call transaction (single-writer %v): %.1f allocs", single, got[k])
	}
	if got[0] != got[1] {
		t.Errorf("lock-manager transactions allocate %.1f objects, single-writer ones %.1f; want the same", got[0], got[1])
	}
}

// TestCallAllocatesNothing: a non-firing Tx.Call on an object the
// transaction has already accessed allocates nothing — no bound map, no
// context, no parameter storage — with and without parameters, and
// neither does a firing one whose action itself Calls. The firing case
// includes the firing feed's one record per firing, whose slice grows
// by doubling, so its amortised cost rounds to no allocation per call:
// the production configuration.
func TestCallAllocatesNothing(t *testing.T) {
	triggers := append(eightTriggers(),
		schema.Trigger{Name: "Nest", Perpetual: true, Event: "after withdraw(n) && n == 7"})
	cls, impl := accountClass(&recorder{}, triggers...)
	nested := 0
	impl.Actions["Nest"] = func(ctx *ActionCtx) error {
		nested++
		_, err := ctx.Tx.Call(ctx.Self, "deposit", ctx.EventParam("amount"))
		return err
	}
	e := newEngine(t, Options{})
	names := make([]string, len(triggers))
	for i, tr := range triggers {
		names[i] = tr.Name
	}
	oid := setup(t, e, cls, impl, names...)

	tx := e.Begin()
	defer tx.Abort()
	cases := []struct {
		name   string
		method string
		args   []value.Value
	}{
		{"with a parameter", "deposit", []value.Value{value.Int(1)}},
		{"without parameters", "getBalance", nil},
		{"firing, action calls", "withdraw", []value.Value{value.Int(7)}},
	}
	for _, c := range cases {
		call := func() {
			if _, err := tx.Call(oid, c.method, c.args...); err != nil {
				t.Fatal(err)
			}
		}
		// First access, and the provenance journal the call moves past
		// its first doublings.
		for i := 0; i < 64; i++ {
			call()
		}
		if avg := testing.AllocsPerRun(200, call); avg != 0 {
			t.Errorf("Tx.Call %s allocates %.1f objects; want 0", c.name, avg)
		}
	}
	if nested == 0 {
		t.Fatal("the nested case never fired")
	}
}

func BenchmarkWholeTx(b *testing.B) {
	run := wholeTxSetup(b, 10000, Options{})
	for i := 0; i < 10000; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}

// errInject aborts a workload transaction on purpose.
var errInject = errors.New("injected abort")

// maskOp is one transaction of runMaskWorkload's script.
type maskOp struct {
	acct int
	kind int   // 0–2 deposit, 3–4 withdraw, 5 re-arm, 6 deposit then abort, 7 getBalance
	n    int64 // the amount, or Big's new limit
}

// genMaskOps draws a deterministic randomized mix of deposits,
// withdrawals, re-activations and aborts against three accounts.
func genMaskOps(seed int64, n int) []maskOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]maskOp, n)
	for i := range ops {
		op := &ops[i]
		op.acct, op.kind = rng.Intn(3), rng.Intn(8)
		switch op.kind {
		case 0, 1, 2, 6:
			op.n = int64(rng.Intn(400))
		case 3, 4:
			op.n = int64(rng.Intn(300))
		case 5:
			op.n = int64(50 + rng.Intn(300))
		}
	}
	return ops
}

// runMaskWorkload runs ops, one transaction each, against three
// accounts (balance 600, Big's limits 100, 200 and 300, every trigger
// active) and returns the firing log, the final balances and the
// accounts.
func runMaskWorkload(t *testing.T, ops []maskOp) ([]string, []int64, []store.OID) {
	t.Helper()
	rec := &recorder{}
	triggers := []schema.Trigger{
		// Event param against an activation param.
		{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > lim",
			Params: []schema.Param{{Name: "lim", Kind: value.KindInt}}},
		// Schema parameter name directly, plus an object field.
		{Name: "Poor", Perpetual: true, Event: "after withdraw(amount) && balance < 500"},
		// Composite with a mask on one constituent; ordinary, so it
		// deactivates on firing and gets re-activated by the workload.
		{Name: "Seq", Event: "relative(after deposit(n) && n > 200, after withdraw)"},
		// A mask that calls a class-level function.
		{Name: "Dbl", Perpetual: true, Event: "after deposit(n) && twice(n) > 300"},
	}
	cls, impl := accountClass(rec, triggers...)
	impl.Funcs = map[string]MaskFunc{
		"twice": func(args []value.Value) (value.Value, error) {
			if len(args) != 1 || args[0].Kind != value.KindInt {
				return value.Null(), fmt.Errorf("twice wants one int")
			}
			return value.Int(2 * args[0].AsInt()), nil
		},
	}
	for _, tr := range triggers {
		impl.Actions[tr.Name] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%s@%d %s", ctx.Trigger, ctx.Self, ctx.EventKind))
			return nil
		}
	}

	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var accts []store.OID
	err := e.Transact(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(600)})
			if err != nil {
				return err
			}
			if err := tx.Activate(oid, "Big", value.Int(int64(100+100*i))); err != nil {
				return err
			}
			for _, name := range []string{"Poor", "Seq", "Dbl"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			accts = append(accts, oid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, op := range ops {
		err := e.Transact(func(tx *Tx) error {
			oid := accts[op.acct]
			switch op.kind {
			case 0, 1, 2:
				_, err := tx.Call(oid, "deposit", value.Int(op.n))
				return err
			case 3, 4:
				_, err := tx.Call(oid, "withdraw", value.Int(op.n))
				return err
			case 5:
				// Restart the composite (it deactivates on firing) and
				// re-parameterize Big.
				if err := tx.Activate(oid, "Seq"); err != nil {
					return err
				}
				return tx.Activate(oid, "Big", value.Int(op.n))
			case 6:
				if _, err := tx.Call(oid, "deposit", value.Int(op.n)); err != nil {
					return err
				}
				return errInject // exercise the abort path mid-history
			default:
				_, err := tx.Call(oid, "getBalance")
				return err
			}
		})
		if err != nil && !errors.Is(err, errInject) {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	var balances []int64
	err = e.Transact(func(tx *Tx) error {
		for _, oid := range accts {
			b, err := tx.Get(oid, "balance")
			if err != nil {
				return err
			}
			balances = append(balances, b.AsInt())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.list(), balances, accts
}

// maskModel is runMaskWorkload's four triggers in plain Go: the firing
// log ops must produce — an aborted transaction's firings included, its
// actions ran — and the final balances.
func maskModel(ops []maskOp, accts []store.OID) ([]string, []int64) {
	type acct struct {
		balance, lim   int64 // the field; Big's activation parameter
		seqOn, seqSeen bool  // Seq active; its deposit over 200 seen
	}
	as := make([]acct, len(accts))
	for i := range as {
		as[i] = acct{balance: 600, lim: int64(100 + 100*i), seqOn: true}
	}
	var log []string
	for _, op := range ops {
		a := &as[op.acct]
		committed := *a
		fire := func(trigger, kind string) {
			log = append(log, fmt.Sprintf("%s@%d %s", trigger, accts[op.acct], kind))
		}
		switch op.kind {
		case 0, 1, 2, 6:
			a.balance += op.n
			if op.n > a.lim {
				fire("Big", "after deposit")
			}
			a.seqSeen = a.seqSeen || op.n > 200
			if 2*op.n > 300 {
				fire("Dbl", "after deposit")
			}
			if op.kind == 6 {
				*a = committed
			}
		case 3, 4:
			a.balance -= op.n
			if a.balance < 500 {
				fire("Poor", "after withdraw")
			}
			if a.seqOn && a.seqSeen {
				fire("Seq", "after withdraw")
				a.seqOn = false
			}
		case 5:
			a.seqOn, a.seqSeen, a.lim = true, false, op.n
		}
	}
	balances := make([]int64, len(as))
	for i, a := range as {
		balances[i] = a.balance
	}
	return log, balances
}

// TestCompiledMasksMatchModel is the acceptance check for the compiled
// hot path (mask programs + dispatch tables + dense slots): over a
// randomized workload it fires what a plain-Go model of the triggers
// says, in the model's order, and leaves the model's balances.
func TestCompiledMasksMatchModel(t *testing.T) {
	ops := genMaskOps(92, 300)
	log, balances, accts := runMaskWorkload(t, ops)
	wantLog, wantBalances := maskModel(ops, accts)
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("firing sequences diverge:\ncompiled: %d firings %v\nmodel:    %d firings %v",
			len(log), log, len(wantLog), wantLog)
	}
	if !reflect.DeepEqual(balances, wantBalances) {
		t.Fatalf("final balances diverge: compiled %v, model %v", balances, wantBalances)
	}
	for _, name := range []string{"Big", "Poor", "Seq", "Dbl"} {
		if !slices.ContainsFunc(log, func(f string) bool { return strings.HasPrefix(f, name+"@") }) {
			t.Fatalf("%s never fired; the model is untested for it", name)
		}
	}
	t.Logf("identical firing sequences (%d firings)", len(log))
}

// TestRegisterClassSharedParserConcurrent: registering two classes that
// share one define-set parser must not mutate the shared parser (the
// old in-place Methods assignment was a data race under -race).
func TestRegisterClassSharedParserConcurrent(t *testing.T) {
	ps := evlang.NewParser()
	if err := ps.Define("dep", "after deposit"); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{})
	recA, recB := &recorder{}, &recorder{}
	clsA, implA := accountClass(recA, schema.Trigger{Name: "A", Perpetual: true, Event: "dep"})
	clsB, implB := accountClass(recB, schema.Trigger{Name: "B", Perpetual: true, Event: "dep"})
	clsB.Name = "account2"

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = e.RegisterClass(clsA, implA, ps)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = e.RegisterClass(clsB, implB, ps)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("registration %d: %v", i, err)
		}
	}
	if ps.Methods != nil {
		t.Fatalf("shared parser's Methods mutated in place: %v", ps.Methods)
	}
}

// TestNewObjectAllocBudget: creating an object without fields,
// activating a trigger on it and committing allocates no map for its
// fields — the object shares its class's defaults until its first write
// — so what it costs does not depend on how many fields the class
// declares, and stays within a per-object budget. The comparison is
// exact on every map implementation: at one allocation per fields map,
// a class with 40 fields would cost at least one more than a class with
// two.
func TestNewObjectAllocBudget(t *testing.T) {
	const budget = 6 // measured 4.5 per object; slack for map-implementation differences between Go releases
	const objects = 64
	perTx := func(extra int) float64 {
		cls, impl := accountClass(&recorder{}, schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
		for i := 0; i < extra; i++ {
			cls.Fields = append(cls.Fields, schema.Field{Name: fmt.Sprintf("f%d", i), Kind: value.KindInt, Default: value.Int(int64(i))})
		}
		e := newEngine(t, Options{})
		if _, err := e.RegisterClass(cls, impl, nil); err != nil {
			t.Fatal(err)
		}
		create := func() {
			err := e.Transact(func(tx *Tx) error {
				for i := 0; i < objects; i++ {
					oid, err := tx.NewObject("account", nil)
					if err != nil {
						return err
					}
					if err := tx.Activate(oid, "Big"); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		create() // the store's tables past their first growth
		return testing.AllocsPerRun(20, create)
	}
	two, many := perTx(0), perTx(38)
	t.Logf("a transaction creating %d objects allocates %.0f objects (%.2f per object), %.0f with 40 fields", objects, two, two/objects, many)
	if many != two {
		t.Errorf("a transaction creating %d objects allocates %.0f objects with 2 fields, %.0f with 40: new objects allocate their fields", objects, two, many)
	}
	if per := two / objects; per > budget {
		t.Errorf("NewObject + Activate + commit allocates %.2f objects per object; budget %d", per, budget)
	}
}
