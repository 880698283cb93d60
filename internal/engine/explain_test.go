package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ode/internal/algebra"
	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// replayChain drives the trigger's fat oracle DFA through the
// explanation's steps, asserting every recorded from→to transition
// matches the automaton, and returns the final state.
func replayChain(t *testing.T, tr *Trigger, ex *Explanation) int {
	t.Helper()
	d := tr.Oracle()
	state := d.Start
	for i, s := range ex.Steps {
		if s.From != state {
			t.Fatalf("step %d: chain From=%d, replay is at %d (%+v)", i, s.From, state, s)
		}
		next := d.Next(state, s.Sym)
		if next != s.To {
			t.Fatalf("step %d: chain To=%d, oracle DFA moves %d --%d--> %d", i, s.To, state, s.Sym, next)
		}
		if got := d.Accept[next]; got != s.Accepted {
			t.Fatalf("step %d: chain Accepted=%v, oracle accept[%d]=%v", i, s.Accepted, next, got)
		}
		state = next
	}
	return state
}

// TestExplainPriorAgainstOracle is the acceptance check: for a fired
// prior trigger, Explain returns the exact contributing happening
// sequence — verified by replaying the chain through the shadow
// oracle's DFA and the §4 denotational semantics.
func TestExplainPriorAgainstOracle(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{ShadowOracle: true})
	oid := setup(t, e, cls, impl, "Audit")

	err := e.Transact(func(tx *Tx) error {
		if _, err := tx.Call(oid, "deposit", value.Int(50)); err != nil {
			return err
		}
		if _, err := tx.Call(oid, "getBalance"); err != nil { // inert noise
			return err
		}
		_, err := tx.Call(oid, "withdraw", value.Int(20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("Audit should have fired once, got %v", rec.list())
	}

	ex, err := e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fired || !ex.Complete {
		t.Fatalf("explanation not a complete firing chain: %+v", ex)
	}
	if ex.Active {
		t.Fatal("ordinary trigger should be deactivated after firing")
	}
	if len(ex.Steps) != 2 {
		t.Fatalf("prior(dep, wd) firing chain should be 2 steps, got %d: %+v", len(ex.Steps), ex.Steps)
	}
	if ex.Steps[0].Kind != "after deposit" || ex.Steps[1].Kind != "after withdraw" {
		t.Fatalf("chain kinds = %q, %q; want after deposit, after withdraw",
			ex.Steps[0].Kind, ex.Steps[1].Kind)
	}
	if !ex.Steps[len(ex.Steps)-1].Accepted {
		t.Fatal("chain must end at the accepting transition")
	}

	tr := e.Class("account").Trigger("Audit")
	final := replayChain(t, tr, ex)
	if !tr.Oracle().Accept[final] {
		t.Fatalf("replayed chain ends in non-accepting state %d", final)
	}
	// The §4 denotational semantics agree the chain's symbol history is
	// an occurrence of the trigger's event expression.
	syms := make([]int, len(ex.Steps))
	for i, s := range ex.Steps {
		syms[i] = s.Sym
	}
	if !algebra.Occurs(tr.Res.Expr, syms) {
		t.Fatalf("oracle says chain %v is not an occurrence of %s", syms, tr.Res.Name)
	}
}

// TestExplainSequenceAgainstOracle does the same for a sequence
// (immediate-succession) trigger, posting hand-built happenings so no
// method-lifecycle noise sits between the constituents.
func TestExplainSequenceAgainstOracle(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Pair", Event: "sequence(after deposit, after withdraw)"})
	e := newEngine(t, Options{ShadowOracle: true})
	oid := setup(t, e, cls, impl, "Pair")

	tx := e.Begin()
	r, err := tx.access(oid)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []event.Kind{
		event.MethodKind(event.After, "deposit"),
		event.MethodKind(event.After, "withdraw"),
	} {
		h := event.Happening{Kind: kind, TxID: tx.ID(), At: e.clk.Now()}
		if _, err := tx.stepOne(oid, r, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("Pair should have fired once, got %v", rec.list())
	}

	ex, err := e.Explain("Pair", oid)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fired || !ex.Complete {
		t.Fatalf("explanation not a complete firing chain: %+v", ex)
	}
	if len(ex.Steps) != 2 ||
		ex.Steps[0].Kind != "after deposit" || ex.Steps[1].Kind != "after withdraw" {
		t.Fatalf("chain = %+v; want the dep, wd pair", ex.Steps)
	}
	tr := e.Class("account").Trigger("Pair")
	final := replayChain(t, tr, ex)
	if !tr.Oracle().Accept[final] {
		t.Fatalf("replayed chain ends in non-accepting state %d", final)
	}
	syms := make([]int, len(ex.Steps))
	for i, s := range ex.Steps {
		syms[i] = s.Sym
	}
	if !algebra.Occurs(tr.Res.Expr, syms) {
		t.Fatalf("oracle says chain %v is not an occurrence", syms)
	}
}

// TestExplainUnfiredAndReset: an unfired instance is explained up to
// its current state, and re-activation resets its provenance.
func TestExplainUnfiredAndReset(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Audit")

	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fired {
		t.Fatal("nothing fired yet")
	}
	if !ex.Active || len(ex.Steps) != 1 || ex.Steps[0].Kind != "after deposit" {
		t.Fatalf("partial chain = %+v", ex)
	}
	if !ex.Complete {
		t.Fatal("partial chain still reaches the start state")
	}

	// Re-activation restarts the automaton and discards provenance.
	if err := e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Audit") }); err != nil {
		t.Fatal(err)
	}
	ex, err = e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) != 0 || ex.TotalSteps != 0 || ex.Fired {
		t.Fatalf("provenance should be reset on re-activation: %+v", ex)
	}
}

// TestExplainErrors covers the refusal paths.
func TestExplainErrors(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Audit")

	if _, err := e.Explain("NoSuch", oid); err == nil || !strings.Contains(err.Error(), "no trigger") {
		t.Fatalf("unknown trigger: %v", err)
	}
	if _, err := e.Explain("Audit", store.OID(999999)); err == nil {
		t.Fatal("unknown object should fail")
	}

	// Disabled provenance refuses with a pointed message.
	e2 := newEngine(t, Options{ProvenanceBytes: -1})
	oid2 := setup(t, e2, cls, impl, "Audit")
	if _, err := e2.Explain("Audit", oid2); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("disabled provenance: %v", err)
	}
}

// provEntries counts the objects holding a provenance head, and
// provResident the journals' bytes.
func provEntries(e *Engine) (n int) {
	for i := range e.prov.shards {
		sh := &e.prov.shards[i]
		sh.mu.Lock()
		n += sh.j.Objects()
		sh.mu.Unlock()
	}
	return n
}

// provSteps walks the journal for oid's instance in slot.
func provSteps(e *Engine, oid store.OID, slot int) []obs.ProvStep {
	sh := e.provShardOf(oid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	steps, _ := sh.j.Walk(uint64(oid), slot)
	return steps
}

func provResident(e *Engine) (n uint64) {
	for i := range e.prov.shards {
		sh := &e.prov.shards[i]
		sh.mu.Lock()
		n += uint64(sh.j.Bytes())
		sh.mu.Unlock()
	}
	return n
}

// methodTriggers is n perpetual triggers over method events only, so
// the transaction events around creation and commit move none of them.
func methodTriggers(n int) ([]schema.Trigger, []string) {
	trigs, names := make([]schema.Trigger, n), make([]string, n)
	for i := range trigs {
		names[i] = fmt.Sprintf("T%d", i)
		trigs[i] = schema.Trigger{Name: names[i], Perpetual: true,
			Event: fmt.Sprintf("relative(after deposit(n) && n > %d, after withdraw)", 100+i)}
	}
	return trigs, names
}

// TestActivateAllocatesNoProvenance: arming costs no provenance — an
// object's head and its journal's cells come with its first recorded
// step, not with activation.
func TestActivateAllocatesNoProvenance(t *testing.T) {
	rec := &recorder{}
	trigs, names := methodTriggers(8)
	cls, impl := accountClass(rec, trigs...)
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	const objects = 10000
	oids := make([]store.OID, objects)
	for base := 0; base < objects; base += 500 {
		err := e.Transact(func(tx *Tx) error {
			for i := base; i < base+500; i++ {
				oid, err := tx.NewObject("account", nil)
				if err != nil {
					return err
				}
				oids[i] = oid
				for _, name := range names {
					if err := tx.Activate(oid, name); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.ProvObjects != 0 || s.ProvBytes != 0 || provEntries(e) != 0 {
		t.Fatalf("%d armed, never stepped instances hold %d heads, %d bytes, %d table entries",
			objects*len(names), s.ProvObjects, s.ProvBytes, provEntries(e))
	}

	// Re-arming a different object each run: were provenance laid down
	// per activation, every run would allocate.
	tx := e.Begin()
	defer tx.Abort()
	for _, oid := range oids[:300] {
		if _, err := tx.access(oid); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if err := tx.Activate(oids[i], "T0"); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Activate allocates %.1f objects; want 0", avg)
	}

	// One moved object: one head, one first-size journal, and the gauges
	// agree with the journals.
	if _, err := tx.Call(oids[0], "deposit", value.Int(1000)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.ProvObjects != 1 || s.ProvBytes == 0 || s.ProvBytes != provResident(e) || s.ProvBytes > 64*obs.ProvCellBytes {
		t.Fatalf("after one accepted deposit: %d heads, %d bytes (journals hold %d)", s.ProvObjects, s.ProvBytes, provResident(e))
	}
}

// TestProvenanceFreedWithObject: the provenance head of a deleted object
// is dropped when the deleting transaction commits (its cells stay in
// the bounded journal until overwritten); an aborted delete — and an
// aborted creation — leave the heads as the abort leaves the store.
func TestProvenanceFreedWithObject(t *testing.T) {
	rec := &recorder{}
	trigs, names := methodTriggers(3)
	cls, impl := accountClass(rec, trigs...)
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	const objects = 10000
	oids := make([]store.OID, objects)
	create := func(tx *Tx, i int) error {
		oid, err := tx.NewObject("account", nil)
		if err != nil {
			return err
		}
		oids[i] = oid
		for _, name := range names {
			if err := tx.Activate(oid, name); err != nil {
				return err
			}
		}
		_, err = tx.Call(oid, "deposit", value.Int(1000)) // moves all three
		return err
	}
	for base := 0; base < objects; base += 500 {
		err := e.Transact(func(tx *Tx) error {
			for i := base; i < base+500; i++ {
				if err := create(tx, i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if provEntries(e) != objects || s.ProvObjects != objects || s.ProvBytes == 0 {
		t.Fatalf("before deletion: %d entries, %d heads, %d bytes", provEntries(e), s.ProvObjects, s.ProvBytes)
	}

	// An aborted delete keeps the provenance it would have dropped.
	tx := e.Begin()
	if err := tx.DeleteObject(oids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if ex, err := e.Explain("T0", oids[0]); err != nil || len(ex.Steps) != 1 {
		t.Fatalf("after an aborted delete: %+v, %v", ex, err)
	}

	// An aborted creation leaves nothing behind.
	tx = e.Begin()
	first := oids[0]
	if err := create(tx, 0); err != nil {
		t.Fatal(err)
	}
	created := oids[0]
	oids[0] = first
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().ProvObjects; got != objects || provEntries(e) != objects {
		t.Fatalf("after an aborted creation: %d heads, %d entries", got, provEntries(e))
	}
	if _, err := e.Explain("T0", created); err == nil {
		t.Fatal("Explain on a rolled-back creation should fail")
	}

	_, wantErr := e.Explain("T0", store.OID(1<<40)) // the "no object" error
	for base := 0; base < objects; base += 500 {
		err := e.Transact(func(tx *Tx) error {
			for _, oid := range oids[base : base+500] {
				if err := tx.DeleteObject(oid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s = e.Stats()
	if provEntries(e) != 0 || s.ProvObjects != 0 || s.ProvBytes != provResident(e) || s.ProvBytes > obs.DefaultProvenanceBytes {
		t.Fatalf("after deletion: %d entries, %d heads, %d bytes", provEntries(e), s.ProvObjects, s.ProvBytes)
	}
	_, err := e.Explain("T0", oids[1])
	if err == nil || wantErr == nil ||
		strings.ReplaceAll(err.Error(), fmt.Sprint(oids[1]), "N") != strings.ReplaceAll(wantErr.Error(), fmt.Sprint(1<<40), "N") {
		t.Fatalf("Explain on a deleted object: %v; want the no-object error (%v)", err, wantErr)
	}
}

// TestExplainWhileRingGrows polls Explain while the instance's journal
// is born, grows through its doublings, and the instance is reset by a
// re-activation — under -race. Every answer must be a consistent chain:
// consecutive step numbers ending at the total, states linked.
func TestExplainWhileRingGrows(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Chain", Perpetual: true,
			Event: "sequence(after deposit, after withdraw(a) && a > 100)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Chain")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ex, err := e.Explain("Chain", oid)
				if err != nil {
					t.Error(err)
					return
				}
				for i, s := range ex.Steps {
					if i > 0 && (s.Seq != ex.Steps[i-1].Seq+1 || s.From != ex.Steps[i-1].To) {
						t.Errorf("broken chain at %d: %+v", i, ex.Steps)
						return
					}
				}
				if n := len(ex.Steps); n > 0 && ex.Steps[n-1].Seq != ex.TotalSteps {
					t.Errorf("step %d of %d", ex.Steps[n-1].Seq, ex.TotalSteps)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		// 40 state changes per round: past the journal's first doublings.
		for i := 0; i < 20; i++ {
			err := e.Transact(func(tx *Tx) error {
				if _, err := tx.Call(oid, "deposit", value.Int(1)); err != nil {
					return err
				}
				_, err := tx.Call(oid, "withdraw", value.Int(1))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			if got := e.Stats().ProvBytes; got == 0 || got > obs.DefaultProvenanceBytes {
				t.Fatalf("journals hold %d bytes, bound %d", got, obs.DefaultProvenanceBytes)
			}
		}
		if err := e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Chain") }); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if rec.count() != 0 {
		t.Fatalf("nothing should have fired: %v", rec.list())
	}
}

// TestExplainTruncatedHistory: a history ten times the provenance bound
// keeps its most recent steps, and the gauge stays within the bound.
// Explain returns the retained suffix as a linked chain numbered from
// the cut and reports the cut — also for a firing whose first step was
// overwritten, which is then not Complete; after a re-activation the
// walk stops at the reset marker and the history is whole again.
func TestExplainTruncatedHistory(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Chain", Perpetual: true,
			Event: "sequence(after deposit, after withdraw(a) && a > 100)"},
		schema.Trigger{Name: "Big", Event: "prior(after deposit, after withdraw(a) && a > 100)"})
	const bound = 8 * obs.ProvCellBytes << provShardBits // 8 cells a shard
	e := newEngine(t, Options{ProvenanceBytes: bound})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	oids := make([]store.OID, 16)
	for i := range oids {
		err := e.Transact(func(tx *Tx) error {
			oid, err := tx.NewObject("account", nil)
			oids[i] = oid
			for _, trig := range []string{"Chain", "Big"} {
				if err == nil {
					err = tx.Activate(oid, trig)
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Two state changes per bounce: 10 × the bound in all.
	for round := 0; round < 10*bound/obs.ProvCellBytes/2/len(oids); round++ {
		err := e.Transact(func(tx *Tx) error {
			for _, oid := range oids {
				if _, err := tx.Call(oid, "deposit", value.Int(1)); err != nil {
					return err
				}
				if _, err := tx.Call(oid, "withdraw", value.Int(1)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.ProvBytes == 0 || s.ProvBytes > bound || s.ProvBytes != provResident(e) || s.ProvenanceSteps < 10*bound/obs.ProvCellBytes {
		t.Fatalf("%d steps recorded in %d bytes; bound %d", s.ProvenanceSteps, s.ProvBytes, bound)
	}
	for _, oid := range oids {
		ex, err := e.Explain("Chain", oid)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ex.Steps)
		if !ex.Truncated || ex.Fired || n == 0 || ex.TotalSteps > 8 {
			t.Fatalf("@%d: %+v; want a cut suffix of at most 8 steps", oid, ex)
		}
		for i, s := range ex.Steps {
			if i > 0 && (s.Seq != ex.Steps[i-1].Seq+1 || s.From != ex.Steps[i-1].To) {
				t.Fatalf("@%d: broken chain at %d: %+v", oid, i, ex.Steps)
			}
		}
		if last := ex.Steps[n-1]; last.Seq != ex.TotalSteps || last.To != ex.State {
			t.Fatalf("@%d: the chain does not end at the newest retained step: %+v", oid, ex)
		}
	}

	// Big moved once, at the first deposit, and that step is gone: its
	// firing is explained from the cut, not from the start state.
	fire := func() {
		t.Helper()
		err := e.Transact(func(tx *Tx) error {
			if _, err := tx.Call(oids[0], "deposit", value.Int(1)); err != nil {
				return err
			}
			_, err := tx.Call(oids[0], "withdraw", value.Int(500))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fire()
	ex, err := e.Explain("Big", oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Truncated || !ex.Fired || ex.Complete || len(ex.Steps) != 1 || ex.Steps[0].From == ex.Start {
		t.Fatalf("firing whose first step was overwritten: %+v", ex)
	}
	// Re-activated, Big's walk stops at its reset marker: whole again.
	if err := e.Transact(func(tx *Tx) error { return tx.Activate(oids[0], "Big") }); err != nil {
		t.Fatal(err)
	}
	fire()
	if ex, err = e.Explain("Big", oids[0]); err != nil {
		t.Fatal(err)
	}
	if ex.Truncated || !ex.Fired || !ex.Complete || len(ex.Steps) != 2 || ex.TotalSteps != 2 {
		t.Fatalf("firing after a re-activation: %+v", ex)
	}
	big := e.Class("account").Trigger("Big")
	if final := replayChain(t, big, ex); !big.Oracle().Accept[final] {
		t.Fatalf("replayed chain ends in non-accepting state %d", final)
	}
}

// TestProvenanceTxIDIsTheSteppingTransaction pins the one rule for
// ProvStep.TxID: it is the id of the transaction that made the step —
// the id the flight recorder stamps on the same happening — whoever the
// happening is about. A Tx.Call's step carries the caller's id; an
// `after tcommit` posting, an 'after' one-shot and a cohort tick carry
// the id of the system transaction that delivered them, never the
// finished user transaction's and never zero.
func TestProvenanceTxIDIsTheSteppingTransaction(t *testing.T) {
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "Dep", Perpetual: true, Event: "after deposit"},
		schema.Trigger{Name: "Done", Perpetual: true, Event: "after tcommit"},
		schema.Trigger{Name: "Late", Event: "after time(M=45)"},
		schema.Trigger{Name: "Tick", Perpetual: true, Event: "every time(M=10)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Dep", "Done", "Late", "Tick")

	tx := e.Begin()
	userTx := tx.ID()
	if _, err := tx.Call(oid, "deposit", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Clock().Advance(50 * time.Minute) // five cohort ticks, the one-shot at +45m
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatal(errs)
	}

	// The transaction the flight recorder saw make the last happening of
	// a kind: one record per happening for one-at-a-time steps, one
	// summary per tick for a cohort's.
	flightTx := func(stage obs.Stage, kind string) uint64 {
		t.Helper()
		evs := e.FlightEvents(0)
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Stage == stage && evs[i].Kind == kind {
				return evs[i].TxID
			}
		}
		t.Fatalf("no %v flight record of kind %q", stage, kind)
		return 0
	}
	lastStep := func(trigger string) obs.ProvStep {
		t.Helper()
		ex, err := e.Explain(trigger, oid)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Steps) == 0 {
			t.Fatalf("%s recorded no step", trigger)
		}
		return ex.Steps[len(ex.Steps)-1]
	}

	// Dep's only step is userTx's call; the last step of each of the
	// others was made by a system transaction (Done's by the one that
	// reported userTx's commit — system transactions themselves post no
	// lifecycle events).
	if got := lastStep("Dep").TxID; got != userTx {
		t.Errorf("Tx.Call: step TxID = %d, want the calling transaction %d", got, userTx)
	}
	for _, c := range []struct {
		what, trigger string
		stage         obs.Stage
		kind          string
	}{
		{"after tcommit posting", "Done", obs.StageBatch, "after tcommit"},
		{"'after' one-shot", "Late", obs.StageHappening, "timer after time(M=45)"},
		{"cohort tick", "Tick", obs.StageBatch, "timer every time(M=10)"},
	} {
		s := lastStep(c.trigger)
		if s.Kind != c.kind {
			t.Fatalf("%s: last step is a %q, want %q", c.what, s.Kind, c.kind)
		}
		want := flightTx(c.stage, c.kind)
		if s.TxID != want || s.TxID == 0 || s.TxID == userTx {
			t.Errorf("%s: step TxID = %d, want the delivering system transaction %d (user transaction was %d)",
				c.what, s.TxID, want, userTx)
		}
	}
}
