package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// batchScriptOp is one operation of the randomized equivalence script.
type batchScriptOp struct {
	kind  int // 0 = transaction of calls, 1 = activation tx, 2 = aborted tx of calls
	oid   int // account index (activation)
	lim   int64
	calls []batchScriptCall
}

type batchScriptCall struct {
	oid    int
	method string
	amount int64 // ignored for getBalance
}

// genBatchScript generates a deterministic workload mixing batched
// method runs, trigger re-activations and aborted transactions.
func genBatchScript(seed int64, nOps int) []batchScriptOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []batchScriptOp
	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0:
			ops = append(ops, batchScriptOp{kind: 1, oid: rng.Intn(3), lim: int64(50 + rng.Intn(300))})
		default:
			op := batchScriptOp{kind: 0}
			if rng.Intn(8) == 0 {
				op.kind = 2 // abort after the calls
			}
			n := 1 + rng.Intn(8)
			for j := 0; j < n; j++ {
				c := batchScriptCall{oid: rng.Intn(3)}
				switch rng.Intn(5) {
				case 0, 1:
					c.method, c.amount = "deposit", int64(rng.Intn(400))
				case 2, 3:
					c.method, c.amount = "withdraw", int64(rng.Intn(300))
				default:
					c.method = "getBalance"
				}
				op.calls = append(op.calls, c)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// provStepCmp is a provenance step stripped of its timestamp and
// transaction id for cross-run comparison (both are equal across the
// runs in practice, but the equivalence claim is about the chain).
type provStepCmp struct {
	Kind     string
	Bits     uint32
	Sym      int
	From, To int
	Accepted bool
}

// batchWorkloadResult captures everything observable about a run.
type batchWorkloadResult struct {
	fires    []string
	balances []int64
	states   map[string]string // "trigger@acct" -> "state/active"
	prov     map[string][]provStepCmp
}

// runBatchWorkload executes the script on a fresh engine. mode selects
// how transaction-of-calls ops are applied: "single" issues one
// tx.Call per entry, "batch" builds a Batch and posts it with
// tx.PostBatch. The shadow oracle cross-checks every automaton step
// against the §4 denotational semantics in both modes.
func runBatchWorkload(t *testing.T, ops []batchScriptOp, mode string) batchWorkloadResult {
	t.Helper()
	rec := &recorder{}
	triggers := []schema.Trigger{
		{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > lim",
			Params: []schema.Param{{Name: "lim", Kind: value.KindInt}}},
		{Name: "Poor", Perpetual: true, Event: "after withdraw(amount) && balance < 500"},
		{Name: "Seq", Event: "relative(after deposit(n) && n > 200, after withdraw)"},
		{Name: "Bal", Perpetual: true, Event: "after getBalance && balance > 1400"},
	}
	cls, impl := accountClass(rec, triggers...)
	for _, tr := range triggers {
		name := tr.Name
		impl.Actions[name] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%s@%d %s", ctx.Trigger, ctx.Self, ctx.EventKind))
			return nil
		}
	}
	e := newEngine(t, Options{})
	chk := attachChecker(e, 1<<14)
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
			for _, name := range []string{"Poor", "Seq", "Bal"} {
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

	b := NewBatch("account", 8)
	for i, op := range ops {
		switch op.kind {
		case 1:
			err := e.Transact(func(tx *Tx) error {
				if err := tx.Activate(accts[op.oid], "Seq"); err != nil {
					return err
				}
				return tx.Activate(accts[op.oid], "Big", value.Int(op.lim))
			})
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		default:
			err := e.Transact(func(tx *Tx) error {
				if mode == "batch" {
					b.Reset()
					for _, c := range op.calls {
						if c.method == "getBalance" {
							b.Call(accts[c.oid], c.method)
						} else {
							b.Call(accts[c.oid], c.method, value.Int(c.amount))
						}
					}
					if err := tx.PostBatch(b); err != nil {
						return err
					}
				} else {
					for _, c := range op.calls {
						var err error
						if c.method == "getBalance" {
							_, err = tx.Call(accts[c.oid], c.method)
						} else {
							_, err = tx.Call(accts[c.oid], c.method, value.Int(c.amount))
						}
						if err != nil {
							return err
						}
					}
				}
				if op.kind == 2 {
					return errInject
				}
				return nil
			})
			if err != nil && !errors.Is(err, errInject) {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		checkTrace(t, chk, e)
	}

	res := batchWorkloadResult{
		fires:  rec.list(),
		states: map[string]string{},
		prov:   map[string][]provStepCmp{},
	}
	err = e.Transact(func(tx *Tx) error {
		for _, oid := range accts {
			v, err := tx.Get(oid, "balance")
			if err != nil {
				return err
			}
			res.balances = append(res.balances, v.AsInt())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ai, oid := range accts {
		for _, tr := range triggers {
			state, active, err := e.TriggerState(oid, tr.Name)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s@%d", tr.Name, ai)
			res.states[key] = fmt.Sprintf("%d/%v", state, active)
			ex, err := e.Explain(tr.Name, oid)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range ex.Steps {
				res.prov[key] = append(res.prov[key], provStepCmp{
					Kind: s.Kind, Bits: s.Bits, Sym: s.Sym,
					From: s.From, To: s.To, Accepted: s.Accepted,
				})
			}
		}
	}
	return res
}

// TestPostBatchEquivalence is the acceptance check for the batch hot
// path: over a randomized script of batched method runs, activations
// and aborts, posting each transaction as one Batch is observably
// identical to issuing its calls one at a time — same firing sequence,
// final object states, trigger automaton states and provenance chains
// — with the §4 shadow oracle validating every automaton transition in
// both runs.
func TestPostBatchEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 92, 4711} {
		ops := genBatchScript(seed, 120)
		single := runBatchWorkload(t, ops, "single")
		batch := runBatchWorkload(t, ops, "batch")

		if !reflect.DeepEqual(single.fires, batch.fires) {
			t.Fatalf("seed %d: firing sequences diverge:\nsingle: %v\nbatch:  %v", seed, single.fires, batch.fires)
		}
		if !reflect.DeepEqual(single.balances, batch.balances) {
			t.Fatalf("seed %d: balances diverge: single %v batch %v", seed, single.balances, batch.balances)
		}
		if !reflect.DeepEqual(single.states, batch.states) {
			t.Fatalf("seed %d: trigger states diverge:\nsingle: %v\nbatch:  %v", seed, single.states, batch.states)
		}
		if !reflect.DeepEqual(single.prov, batch.prov) {
			t.Fatalf("seed %d: provenance chains diverge:\nsingle: %v\nbatch:  %v", seed, single.prov, batch.prov)
		}
		if len(batch.fires) == 0 {
			t.Fatalf("seed %d: workload fired nothing; equivalence untested", seed)
		}
	}
}

// TestCallAndPostBatchErrorParity: an entry that fails before its first
// posting fails the same way through Tx.Call and through a one-entry
// PostBatch — the same error text, and the object first-accessed either
// way (it is in Accessed() and got its after-tbegin), because both run
// the access before any check. The transaction stays active.
func TestCallAndPostBatchErrorParity(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Big")

	cases := []struct {
		name   string
		method string
		args   []value.Value
		want   string
	}{
		{"unknown method", "frobnicate", nil, `engine: class account has no method "frobnicate"`},
		{"wrong arity", "deposit", nil, "engine: account.deposit takes 1 argument(s), got 0"},
		{"coercion failure", "deposit", []value.Value{value.Str("ten")},
			"engine: account.deposit parameter amount: engine: cannot use string as int"},
	}
	for _, c := range cases {
		type outcome struct {
			err        string
			accessed   []store.OID
			happenings uint64
		}
		var got [2]outcome
		for k, batch := range [2]bool{false, true} {
			before := e.Stats().Happenings
			tx := e.Begin()
			var err error
			if batch {
				b := NewBatch("account", 1)
				b.Call(oid, c.method, c.args...)
				err = tx.PostBatch(b)
			} else {
				_, err = tx.Call(oid, c.method, c.args...)
			}
			if err == nil {
				t.Fatalf("%s (batch %v): no error", c.name, batch)
			}
			got[k] = outcome{err.Error(), tx.Underlying().Accessed(), e.Stats().Happenings - before}
			if _, err := tx.Get(oid, "balance"); err != nil {
				t.Errorf("%s (batch %v): transaction unusable after the error: %v", c.name, batch, err)
			}
			tx.Abort()
		}
		if got[0].err != c.want {
			t.Errorf("%s: Call reports %q, want %q", c.name, got[0].err, c.want)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: Call and PostBatch differ:\ncall:  %+v\nbatch: %+v", c.name, got[0], got[1])
		}
		if len(got[0].accessed) != 1 || got[0].accessed[0] != oid || got[0].happenings != 1 {
			t.Errorf("%s: want the object first-accessed (one after-tbegin) before the check, got %+v", c.name, got[0])
		}
	}
}

// TestPostBatchErrors pins the error behavior: unknown class, unknown
// method (reported at the entry's position, with earlier entries
// already applied and the transaction still usable for singles-path
// comparison), and mixed-class batches.
func TestPostBatchErrors(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Big")

	// Unknown class.
	err := e.Transact(func(tx *Tx) error {
		b := NewBatch("nosuch", 1)
		b.Call(oid, "deposit", value.Int(1))
		return tx.PostBatch(b)
	})
	if err == nil || err.Error() != `engine: unregistered class "nosuch"` {
		t.Fatalf("unknown class: %v", err)
	}

	// Unknown method, reported when its entry executes.
	err = e.Transact(func(tx *Tx) error {
		b := NewBatch("account", 2)
		b.Call(oid, "deposit", value.Int(10))
		b.Call(oid, "frobnicate")
		if err := tx.PostBatch(b); err == nil {
			return fmt.Errorf("unknown method not reported")
		}
		// The first entry applied; the transaction is still active.
		v, err := tx.Get(oid, "balance")
		if err != nil {
			return err
		}
		if v.AsInt() != 1010 {
			return fmt.Errorf("balance = %d, want 1010", v.AsInt())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong argument count, same text as tx.Call.
	err = e.Transact(func(tx *Tx) error {
		b := NewBatch("account", 1)
		b.Call(oid, "deposit")
		return tx.PostBatch(b)
	})
	want := "engine: account.deposit takes 1 argument(s), got 0"
	if err == nil || err.Error() != want {
		t.Fatalf("arg count: got %v, want %q", err, want)
	}

	// Empty batch is a no-op.
	if err := e.Transact(func(tx *Tx) error { return tx.PostBatch(NewBatch("account", 0)) }); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocBudgetPostBatch extends the allocation contract to
// the batch path: posting a batch of masked, non-firing method calls —
// with provenance capture and the flight recorder live — allocates
// nothing, including the method implementations' own field accesses
// (repeat accesses txn.Tx.Access answers from the transaction's entry).
func TestHotPathAllocBudgetPostBatch(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Big")

	const entries = 64
	b := NewBatch("account", entries)
	for i := 0; i < entries; i++ {
		b.Call(oid, "deposit", value.Int(1))
	}

	tx := e.Begin()
	defer tx.Abort()
	// Warm up once: first access posts after-tbegin, the first PostBatch
	// builds the plan.
	if err := tx.PostBatch(b); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := tx.PostBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("batched masked non-firing posting allocates %.2f objects/batch (%d entries); want 0",
			avg, entries)
	}
	if rec.count() != 0 {
		t.Fatalf("no trigger should have fired, got %v", rec.list())
	}
	if e.flight.Total() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	st := e.Stats()
	if st.Happenings == 0 || st.MaskEvals == 0 {
		t.Fatalf("batch metrics did not flush: %+v", st)
	}
}

// TestPostBatchEpochRace hammers the store's lock-free committed view
// from reader goroutines while writers commit batches, under -race.
// Each writer owns one account and commits batches whose net effect is
// a fixed +20 per transaction; every committed version a reader
// observes must therefore have balance ≡ 0 (mod 20) — intermediate
// in-transaction states are never published — and balances must never
// go backwards.
func TestPostBatchEpochRace(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 1000000"})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const rounds = 150
	var oids [writers]store.OID
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			var err error
			oids[i], err = tx.NewObject("account", map[string]value.Value{"balance": value.Int(1000)})
			if err != nil {
				return err
			}
			if err := tx.Activate(oids[i], "Big"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			b := NewBatch("account", 4)
			for r := 0; r < rounds; r++ {
				err := e.Transact(func(tx *Tx) error {
					b.Reset()
					for k := 0; k < 4; k++ {
						b.Call(oids[w], "deposit", value.Int(5))
					}
					return tx.PostBatch(b)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	errs := make(chan string, 4)
	for rd := 0; rd < 4; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			last := map[store.OID]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, oid := range oids {
					recd, ok := e.Store().GetCommitted(oid)
					if !ok {
						continue // not yet published
					}
					bal := field(recd, "balance").AsInt()
					if bal%20 != 0 {
						errs <- fmt.Sprintf("reader saw un-committed intermediate balance %d", bal)
						return
					}
					if bal < last[oid] {
						errs <- fmt.Sprintf("committed balance went backwards: %d -> %d", last[oid], bal)
						return
					}
					last[oid] = bal
				}
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for _, oid := range oids {
		recd, ok := e.Store().GetCommitted(oid)
		if !ok || field(recd, "balance").AsInt() != 1000+20*rounds {
			t.Fatalf("final committed balance = %+v (ok=%v), want %d", recd, ok, 1000+20*rounds)
		}
	}
}

// TestPostBatchAccessCacheInvalidation proves a repeat access cannot
// serve a stale record across the operations that end its validity:
// a delete inside the batch makes later entries for the object fail
// exactly as singles would, and a finished transaction rejects further
// operations instead of answering from its access list.
func TestPostBatchAccessCacheInvalidation(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 100"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Big")

	// Delete between two batch posts of the same object.
	err := e.Transact(func(tx *Tx) error {
		b := NewBatch("account", 1)
		b.Call(oid, "deposit", value.Int(1))
		if err := tx.PostBatch(b); err != nil {
			return err
		}
		if err := tx.DeleteObject(oid); err != nil {
			return err
		}
		if err := tx.PostBatch(b); err == nil {
			return fmt.Errorf("posting to a deleted object succeeded")
		}
		return errInject // roll everything back
	})
	if !errors.Is(err, errInject) {
		t.Fatal(err)
	}

	// A committed transaction must not answer from its cache.
	tx := e.Begin()
	b := NewBatch("account", 1)
	b.Call(oid, "deposit", value.Int(1))
	if err := tx.PostBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(oid, "balance"); err == nil {
		t.Fatal("finished transaction served a read from its record cache")
	}
}
