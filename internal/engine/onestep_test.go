package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// The differential test for Tx.step's callers: one generated script,
// executed every way the engine can be asked to post it, must be
// observably the same execution.

// oneStepTx is one transaction of the script: optionally a re-arming of
// one account's parameterised and one-shot triggers, then method calls,
// then the outcome, then a clock advance.
type oneStepTx struct {
	rearm   int // account index, -1 for none
	lim     int64
	calls   []oneStepCall
	abort   bool
	advance time.Duration
}

type oneStepCall struct {
	acct   int
	method string
	arg    int64 // ignored by getBalance
}

const oneStepAccounts = 4

func genOneStepScript(seed int64, n int) []oneStepTx {
	rng := rand.New(rand.NewSource(seed))
	script := make([]oneStepTx, n)
	for i := range script {
		op := &script[i]
		op.rearm = -1
		if rng.Intn(8) == 0 {
			op.rearm, op.lim = rng.Intn(oneStepAccounts), int64(50+rng.Intn(300))
		}
		for j, calls := 0, 1+rng.Intn(10); j < calls; j++ {
			c := oneStepCall{acct: rng.Intn(oneStepAccounts)}
			switch rng.Intn(8) {
			case 0, 1, 2:
				c.method, c.arg = "deposit", int64(rng.Intn(400))
			case 3, 4:
				c.method, c.arg = "withdraw", int64(rng.Intn(300))
			case 5:
				c.method, c.arg = "poke", int64(rng.Intn(16)) // 13 makes Bad's mask fail
			default:
				c.method = "getBalance" // a kind nobody listens on
			}
			op.calls = append(op.calls, c)
		}
		op.abort = rng.Intn(8) == 0
		// Whole multiples of the tick period, so the 'after' one-shot
		// (due 45 minutes after its arming) never shares an instant with
		// a tick: the order of two timers due together is the clock's
		// business, not the step's.
		if rng.Intn(3) == 0 {
			op.advance = time.Duration(10*(1+rng.Intn(6))) * time.Minute
		}
	}
	return script
}

// oneStepRun is everything a run lets an observer see.
type oneStepRun struct {
	fires     []string
	outcomes  []string // per transaction: its error and how many method bodies had run
	states    map[string]string
	chains    map[string][]obs.ProvStep // TxID zeroed
	counters  [6]uint64
	triggers  []obs.TriggerSnapshot
	timerErrs []error
}

// runOneStep executes the script on a fresh engine. mode is how a
// transaction's calls are posted: "call" (one Tx.Call each), "batch"
// (one PostBatch) or "chunks" (PostBatch in random chunks);
// perObject delivers ticks through postTimer, one member at a time,
// instead of one cohort tick.
func runOneStep(t *testing.T, script []oneStepTx, seed int64, mode string, perObject bool) oneStepRun {
	t.Helper()
	var run oneStepRun
	bodies := 0
	body := func(*MethodCtx) (value.Value, error) { bodies++; return value.Null(), nil }
	intParam := func(name string) []schema.Param { return []schema.Param{{Name: name, Kind: value.KindInt}} }
	triggers := []schema.Trigger{
		{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > lim", Params: intParam("lim")},
		// Ordinary: deactivated by its firing, re-activated by its own action.
		{Name: "Seq", Event: "relative(after deposit(n) && n > 200, after withdraw)"},
		// Whole view, stepped by cohort ticks and by batched calls alike.
		{Name: "Whole", Perpetual: true, Event: "relative(every time(M=10), after withdraw)", View: schema.WholeView},
		{Name: "Tick", Perpetual: true, Event: "every time(M=10)"},
		{Name: "Late", Event: "after time(M=45)"},
		{Name: "Bad", Perpetual: true, Event: "after poke(x) && odd(x)"},
	}
	cls := &schema.Class{
		Name:   "acct",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "deposit", Params: intParam("n"), Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: intParam("n"), Mode: schema.ModeUpdate},
			{Name: "poke", Params: intParam("x"), Mode: schema.ModeUpdate},
			{Name: "getBalance", Mode: schema.ModeRead},
		},
		Triggers: triggers,
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{"deposit": body, "withdraw": body, "poke": body, "getBalance": body},
		Actions: map[string]ActionFunc{},
		Funcs: map[string]MaskFunc{"odd": func(args []value.Value) (value.Value, error) {
			if args[0].AsInt() == 13 {
				return value.Null(), errors.New("odd: unlucky")
			}
			return value.Bool(args[0].AsInt()%2 == 1), nil
		}},
	}
	for _, tr := range triggers {
		impl.Actions[tr.Name] = func(ctx *ActionCtx) error {
			run.fires = append(run.fires, fmt.Sprintf("%s@%d %s", ctx.Trigger, ctx.Self, ctx.EventKind))
			if ctx.Trigger == "Seq" {
				return ctx.Tx.Activate(ctx.Self, "Seq")
			}
			return nil
		}
	}

	e := newEngine(t, Options{})
	e.timers.perObject = perObject
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph, err := c.phaseOf(event.MethodKind(event.After, "getBalance")); err != nil || len(ph.entries) != 0 {
		t.Fatalf("after getBalance should be a kind nobody listens on: %+v, %v", ph, err)
	}
	accts := make([]store.OID, oneStepAccounts)
	err = e.Transact(func(tx *Tx) error {
		for i := range accts {
			oid, err := tx.NewObject("acct", nil)
			if err != nil {
				return err
			}
			accts[i] = oid
			if err := tx.Activate(oid, "Big", value.Int(int64(100*i))); err != nil {
				return err
			}
			for _, tr := range triggers[1:] {
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

	chunker := rand.New(rand.NewSource(seed + 1))
	b := NewBatch("acct", 8)
	fill := func(calls []oneStepCall) {
		b.Reset()
		for _, c := range calls {
			if c.method == "getBalance" {
				b.Call(accts[c.acct], c.method)
			} else {
				b.Call(accts[c.acct], c.method, value.Int(c.arg))
			}
		}
	}
	for i, op := range script {
		if op.rearm >= 0 {
			err := e.Transact(func(tx *Tx) error {
				if err := tx.Activate(accts[op.rearm], "Big", value.Int(op.lim)); err != nil {
					return err
				}
				return tx.Activate(accts[op.rearm], "Late")
			})
			if err != nil {
				t.Fatalf("tx %d re-arm: %v", i, err)
			}
		}
		err := e.Transact(func(tx *Tx) error {
			switch mode {
			case "call":
				for _, c := range op.calls {
					args := []value.Value{value.Int(c.arg)}
					if c.method == "getBalance" {
						args = nil
					}
					if _, err := tx.Call(accts[c.acct], c.method, args...); err != nil {
						return err
					}
				}
			case "batch":
				fill(op.calls)
				if err := tx.PostBatch(b); err != nil {
					return err
				}
			case "chunks":
				for rest := op.calls; len(rest) > 0; {
					n := 1 + chunker.Intn(len(rest))
					fill(rest[:n])
					if err := tx.PostBatch(b); err != nil {
						return err
					}
					rest = rest[n:]
				}
			}
			if op.abort {
				return errInject
			}
			return nil
		})
		run.outcomes = append(run.outcomes, fmt.Sprintf("tx %d: %v after %d bodies", i, err, bodies))
		e.Clock().Advance(op.advance)
	}

	run.states = map[string]string{}
	run.chains = map[string][]obs.ProvStep{}
	for ai, oid := range accts {
		for _, tr := range triggers {
			key := fmt.Sprintf("%s@%d", tr.Name, ai)
			state, active, err := e.TriggerState(oid, tr.Name)
			if err != nil {
				t.Fatal(err)
			}
			run.states[key] = fmt.Sprintf("%d/%v", state, active)
			ex, err := e.Explain(tr.Name, oid)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range ex.Steps {
				s.TxID = 0 // numbered per system transaction: differs between the timer layouts
				run.chains[key] = append(run.chains[key], s)
			}
		}
	}
	s := e.Stats()
	run.counters = [6]uint64{s.Happenings, s.Steps, s.MaskEvals, s.Firings, s.ProvenanceSteps, s.TcompleteRounds}
	run.triggers = e.Metrics().Snapshot().Canonical().Triggers
	run.timerErrs = e.TimerErrors()
	return run
}

// TestOneStepDifferential: posting a script one Tx.Call at a time, as
// one PostBatch per transaction, or as PostBatches of random chunks —
// with ticks delivered as one cohort tick or by postTimer member by
// member — is one execution: the same firings in the same order, the same
// provenance chains (but for the id of the delivering transaction), the
// same final trigger states, detection counters and per-trigger metrics,
// and the same errors at the same entries. The script's class has a
// parameterised trigger, an ordinary trigger its own action re-activates,
// a whole-view trigger stepped by ticks and calls alike, an 'every' and
// an 'after' timer, a mask that fails and a kind nobody listens on.
func TestOneStepDifferential(t *testing.T) {
	for _, seed := range []int64{3, 58, 2024, 77001} {
		script := genOneStepScript(seed, 80)
		want := runOneStep(t, script, seed, "call", false)
		var maskFailed, aborted bool
		for _, o := range want.outcomes {
			maskFailed = maskFailed || strings.Contains(o, "trigger Bad mask: odd: unlucky")
			aborted = aborted || strings.Contains(o, errInject.Error())
		}
		if len(want.fires) == 0 || !maskFailed || !aborted || len(want.timerErrs) != 0 {
			t.Fatalf("seed %d: vacuous script: %d firings, mask failed %v, aborted %v, timer errors %v",
				seed, len(want.fires), maskFailed, aborted, want.timerErrs)
		}
		for _, name := range []string{"Big", "Seq", "Whole", "Tick", "Late", "Bad"} {
			if !slices.ContainsFunc(want.fires, func(f string) bool { return strings.HasPrefix(f, name+"@") }) {
				t.Fatalf("seed %d: %s never fired", seed, name)
			}
		}
		for _, perObject := range []bool{false, true} {
			for _, mode := range []string{"call", "batch", "chunks"} {
				got := runOneStep(t, script, seed, mode, perObject)
				if diff := oneStepDiff(got, want); diff != "" {
					t.Errorf("seed %d, %s, per-object timers %v: diverges from Tx.Call / cohort%s",
						seed, mode, perObject, diff)
				}
			}
		}
	}
}

// oneStepDiff names the first thing an observer would see differ.
func oneStepDiff(got, want oneStepRun) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"firings", got.fires, want.fires},
		{"transaction outcomes", got.outcomes, want.outcomes},
		{"trigger states", got.states, want.states},
		{"provenance chains", got.chains, want.chains},
		{"happenings / steps / mask evals / firings / provenance steps / tcomplete rounds", got.counters, want.counters},
		{"per-trigger metrics", got.triggers, want.triggers},
		{"timer errors", got.timerErrs, want.timerErrs},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("\n%s:\n got  %v\n want %v", f.name, f.got, f.want)
		}
	}
	return ""
}
