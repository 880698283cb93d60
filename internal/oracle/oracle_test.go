package oracle

import (
	"errors"
	"strings"
	"testing"

	"ode/internal/compile"
	"ode/internal/evlang"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// trace builds a hand-made engine trace over one class, acct, whose
// trigger T is "relative(after deposit, after deposit)": a deposit after
// an earlier one.
type trace struct {
	t     *testing.T
	f     *obs.Flight
	names *obs.Interner
	decl  *Class
	auto  *compile.Shared
	chk   *Checker
}

func newTrace(t *testing.T, view schema.HistoryView, capacity int) *trace {
	cls := &schema.Class{
		Name:    "acct",
		Fields:  []schema.Field{{Name: "bal", Kind: value.KindInt}},
		Methods: []schema.Method{{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate}},
		Triggers: []schema.Trigger{
			{Name: "T", Perpetual: true, Event: "relative(after deposit, after deposit)", View: view},
		},
	}
	res, err := evlang.ResolveClass(cls, evlang.ForClass(cls))
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace{t: t, names: obs.NewInterner(),
		decl: &Class{Alphabet: res.Alphabet, Triggers: []Trigger{{Res: res.Triggers[0], View: view}}}}
	tr.auto = compile.CompileShared(res.Triggers[0].Expr, res.Alphabet.NumSymbols)
	tr.f = obs.NewFlight(capacity, tr.names)
	tr.chk = New()
	tr.chk.Attach(tr.f, tr.classes)
	return tr
}

func (tr *trace) classes(name string) *Class {
	if name == "acct" {
		return tr.decl
	}
	return nil
}

func (tr *trace) rec(stage obs.Stage, tx, oid uint64, trig, kind string, from, to int, ok bool) {
	tr.f.Record(stage, 0, tx, oid, tr.names.Intern("acct"), tr.names.Intern(trig), tr.names.Intern(kind), from, to, ok, 0)
}

// deposit posts one after-deposit happening to object 1 in tx, stepped
// from state from with the verdict the automaton gives, and returns the
// state it steps to.
func (tr *trace) deposit(tx uint64, from int) int {
	sym := tr.decl.Alphabet.Symbol(tr.kix(), 0)
	to := tr.auto.Next(from, sym)
	tr.rec(obs.StageHappening, tx, 1, "", "after deposit", 0, 0, true)
	tr.rec(obs.StageStep, tx, 1, "T", "after deposit", from, to, tr.auto.Accept(to))
	return to
}

func (tr *trace) kix() int {
	for i, k := range tr.decl.Alphabet.Kinds {
		if k.Kind.String() == "after deposit" {
			return i
		}
	}
	tr.t.Fatal("no after-deposit kind")
	return -1
}

// activate commits tx 1: T activated on object 1.
func (tr *trace) activate() {
	tr.rec(obs.StageTxBegin, 1, 0, "", "user", 0, 0, true)
	tr.rec(obs.StageActivate, 1, 1, "T", "", 0, 0, true)
	tr.rec(obs.StageTxCommit, 1, 0, "", "user", 0, 0, true)
}

func wantDivergence(t *testing.T, err error, what string) {
	t.Helper()
	if !errors.Is(err, ErrDivergence) || !strings.Contains(err.Error(), what) {
		t.Fatalf("got %v, want a divergence naming %q", err, what)
	}
}

// TestCheckerFailsOnATraceGap: a ring that lapped between two drains
// lost events, and the checker refuses to read on.
func TestCheckerFailsOnATraceGap(t *testing.T) {
	tr := newTrace(t, schema.CommittedView, 4)
	tr.activate()
	if err := tr.chk.Drain(); err != nil {
		t.Fatal(err)
	}
	tr.rec(obs.StageTxBegin, 2, 0, "", "user", 0, 0, true)
	from := tr.auto.Start()
	for i := 0; i < 3; i++ {
		from = tr.deposit(2, from)
	}
	wantDivergence(t, tr.chk.Drain(), "trace gap")
}

// TestCheckerFailsOnAVerdictAgainstSection4: a step whose verdict is
// not the §4 label of its history point.
func TestCheckerFailsOnAVerdictAgainstSection4(t *testing.T) {
	tr := newTrace(t, schema.CommittedView, 64)
	tr.activate()
	tr.rec(obs.StageTxBegin, 2, 0, "", "user", 0, 0, true)
	s1 := tr.deposit(2, tr.auto.Start())
	if err := tr.chk.Drain(); err != nil {
		t.Fatalf("an honest first deposit: %v", err)
	}
	// The second deposit fires T; an engine that says it did not is wrong.
	sym := tr.decl.Alphabet.Symbol(tr.kix(), 0)
	s2 := tr.auto.Next(s1, sym)
	tr.rec(obs.StageHappening, 2, 1, "", "after deposit", 0, 0, true)
	tr.rec(obs.StageStep, 2, 1, "T", "after deposit", s1, s2, false)
	wantDivergence(t, tr.chk.Drain(), "§4 oracle=true")
}

// TestCheckerFailsOnAStateAfterAbortWrongForTheView: after an aborted
// deposit, the next step must start where the instance's view puts it —
// back where it was for a committed-view trigger, past the aborted
// deposit for a whole-view one.
func TestCheckerFailsOnAStateAfterAbortWrongForTheView(t *testing.T) {
	for _, c := range []struct {
		view         schema.HistoryView
		keeps, wrong bool
	}{
		{schema.CommittedView, false, false},
		{schema.CommittedView, true, true},
		{schema.WholeView, true, false},
		{schema.WholeView, false, true},
	} {
		tr := newTrace(t, c.view, 64)
		tr.activate()
		start := tr.auto.Start()
		tr.rec(obs.StageTxBegin, 2, 0, "", "user", 0, 0, true)
		s1 := tr.deposit(2, start)
		tr.rec(obs.StageRollback, 2, 0, "", "", 0, 0, true)
		tr.rec(obs.StageTxAbort, 2, 0, "", "user", 0, 0, true)
		tr.rec(obs.StageTxBegin, 3, 0, "", "user", 0, 0, true)
		from := start
		if c.keeps {
			from = s1
		}
		tr.deposit(3, from)
		err := tr.chk.Drain()
		if !c.wrong {
			if err != nil {
				t.Fatalf("%s view, from %d: %v", c.view, from, err)
			}
			continue
		}
		wantDivergence(t, err, "stepped from state")
	}
}

// TestCheckerFailsOnARecoveredStateThatIsNotTheReplay: after a crash,
// the stored state must be the replay of the committed history.
func TestCheckerFailsOnARecoveredStateThatIsNotTheReplay(t *testing.T) {
	for _, honest := range []bool{true, false} {
		tr := newTrace(t, schema.CommittedView, 64)
		tr.activate()
		tr.rec(obs.StageTxBegin, 2, 0, "", "user", 0, 0, true)
		s1 := tr.deposit(2, tr.auto.Start())
		tr.rec(obs.StageTxCommit, 2, 0, "", "user", 0, 0, true)
		tr.rec(obs.StageTxBegin, 3, 0, "", "user", 0, 0, true)
		tr.deposit(3, s1) // never committed: the crash drops it
		if err := tr.chk.Drain(); err != nil {
			t.Fatal(err)
		}
		tr.chk.Crash()

		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		r := st.Create("acct", nil)
		state := s1
		if !honest {
			state = tr.auto.Next(s1, tr.decl.Alphabet.Symbol(tr.kix(), 0))
		}
		*r.Trigger("T") = store.TrigState{Active: true, State: int32(state)}
		err = tr.chk.Recover(st)
		if honest {
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		wantDivergence(t, err, "stored in state")
	}
}

// TestCheckerFailsOnACommittedViewStepOnTabort: a committed-view
// trigger never sees a tabort happening (§6).
func TestCheckerFailsOnACommittedViewStepOnTabort(t *testing.T) {
	tr := newTrace(t, schema.CommittedView, 64)
	tr.activate()
	tr.rec(obs.StageTxBegin, 2, 0, "", "user", 0, 0, true)
	tr.rec(obs.StageHappening, 2, 1, "", "before tabort", 0, 0, true)
	tr.rec(obs.StageStep, 2, 1, "T", "before tabort", tr.auto.Start(), tr.auto.Start(), false)
	wantDivergence(t, tr.chk.Drain(), "committed-view trigger T")
}
