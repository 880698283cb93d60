package evlang

import (
	"fmt"
	"strings"
	"testing"

	"ode/internal/event"
)

func parseOK(t *testing.T, src string) *Event {
	t.Helper()
	e, err := NewParser().ParseEvent(src)
	if err != nil {
		t.Fatalf("ParseEvent(%q): %v", src, err)
	}
	return e
}

func TestParseBasicEvents(t *testing.T) {
	e := parseOK(t, "after withdraw")
	if e.Op != EvBasic || e.Basic.Method != "withdraw" || e.Basic.Phase != event.After {
		t.Fatalf("parsed %+v", e)
	}
	e = parseOK(t, "before tcomplete")
	if e.Op != EvBasic || e.Basic.Keyword != "tcomplete" || e.Basic.Phase != event.Before {
		t.Fatalf("parsed %+v", e)
	}
	e = parseOK(t, "after withdraw(i, q)")
	if len(e.Basic.Formals) != 2 || e.Basic.Formals[0] != "i" || e.Basic.Formals[1] != "q" {
		t.Fatalf("formals %v", e.Basic.Formals)
	}
	// Typed formals, as in the paper: withdraw(Item i, int q).
	e = parseOK(t, "after withdraw(Item i, int q)")
	if len(e.Basic.Formals) != 2 || e.Basic.Formals[0] != "i" || e.Basic.Formals[1] != "q" {
		t.Fatalf("typed formals %v", e.Basic.Formals)
	}
}

func TestParseLogicalMask(t *testing.T) {
	// The paper's §3.2 large-withdrawal example.
	e := parseOK(t, "after withdraw(i, q) && q > 1000")
	if e.Op != EvBasic || e.Mask == nil {
		t.Fatalf("parsed %+v", e)
	}
	if got := e.Mask.String(); got != "(q > 1000)" {
		t.Fatalf("mask %q", got)
	}
	// Chained && extends the mask, not the event.
	e = parseOK(t, "after withdraw && q > 100 && authorized(user())")
	if e.Op != EvBasic || !strings.Contains(e.Mask.String(), "authorized") {
		t.Fatalf("parsed %v", e)
	}
}

func TestParseCompositeMask(t *testing.T) {
	e := parseOK(t, "(after deposit | after withdraw) && n > 0")
	if e.Op != EvMask || e.Args[0].Op != EvOr {
		t.Fatalf("parsed %+v op=%d", e, e.Op)
	}
}

func TestParseOperators(t *testing.T) {
	cases := map[string]EvOp{
		"relative(after a, after b)":       EvRelative,
		"relative 5 (after deposit)":       EvRelative,
		"relative+(after a)":               EvRelPlus,
		"prior(after a, after b, after c)": EvPrior,
		"sequence(after a, before b)":      EvSequence,
		"choose 5 (after tcommit)":         EvChoose,
		"every 5 (after access)":           EvEvery,
		"fa(after a, after b, after c)":    EvFa,
		"faAbs(after a, after b, after c)": EvFaAbs,
		"!after deposit":                   EvNot,
		"after a | before b":               EvOr,
		"after a & before b":               EvAnd,
		"after a; before b; after b":       EvSequence,
	}
	for src, op := range cases {
		e := parseOK(t, src)
		if e.Op != op {
			t.Errorf("%q: op %d, want %d", src, e.Op, op)
		}
	}
	// Counted relative keeps N.
	e := parseOK(t, "relative 5 (after deposit)")
	if e.N != 5 || len(e.Args) != 1 {
		t.Fatalf("relative 5: N=%d args=%d", e.N, len(e.Args))
	}
	// Semicolon chains flatten.
	e = parseOK(t, "after a; before b; after b")
	if len(e.Args) != 3 {
		t.Fatalf("seq args %d", len(e.Args))
	}
	// prior list keeps all three.
	e = parseOK(t, "prior(after a, after b, after c)")
	if len(e.Args) != 3 {
		t.Fatalf("prior args %d", len(e.Args))
	}
}

func TestParseTimeEvents(t *testing.T) {
	e := parseOK(t, "at time(HR=17)")
	if e.Op != EvTime || e.Time.Mode != TimeAt || e.Time.Spec.Hour != 17 {
		t.Fatalf("parsed %+v", e.Time)
	}
	e = parseOK(t, "every time(M=5)")
	if e.Time.Mode != TimeEvery || e.Time.Spec.Min != 5 {
		t.Fatalf("parsed %+v", e.Time)
	}
	// The paper's §3.1 delayed event.
	e = parseOK(t, "after time(HR=2, M=30)")
	if e.Time.Mode != TimeAfter || e.Time.Spec.Hour != 2 || e.Time.Spec.Min != 30 {
		t.Fatalf("parsed %+v", e.Time)
	}
	// every with an integer is the occurrence operator, not a timer.
	e = parseOK(t, "every 5 (after tcommit)")
	if e.Op != EvEvery || e.N != 5 {
		t.Fatalf("every-int parsed as %+v", e)
	}
}

func TestParseStateShorthand(t *testing.T) {
	// The paper's only pre-existing Ode event form: a boolean over
	// object state.
	e := parseOK(t, "balance < 500.00")
	if e.Op != EvMask {
		t.Fatalf("shorthand parsed as op %d", e.Op)
	}
	union := e.Args[0]
	if union.Op != EvOr || len(union.Args) != 2 ||
		union.Args[0].Basic.Keyword != "update" || union.Args[1].Basic.Keyword != "create" {
		t.Fatalf("shorthand expansion %v", union)
	}
	// Parenthesized form inside an event operator.
	e = parseOK(t, "relative((pressure < low_limit), after motorStop)")
	if e.Op != EvRelative || e.Args[0].Op != EvMask {
		t.Fatalf("nested shorthand %+v", e)
	}
}

func TestParseBareMethodShorthand(t *testing.T) {
	// !deposit ≡ !(before deposit | after deposit) (paper §3.3). The
	// shorthand needs the parser to know the class's method names.
	ps := NewParser()
	ps.Methods = map[string]bool{"deposit": true}
	e, err := ps.ParseEvent("!deposit")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != EvNot || e.Args[0].Op != EvOr {
		t.Fatalf("parsed %+v", e)
	}
	or := e.Args[0]
	if or.Args[0].Basic.Method != "deposit" || or.Args[0].Basic.Phase != event.Before ||
		or.Args[1].Basic.Phase != event.After {
		t.Fatalf("expansion %+v", or)
	}
}

func TestParseDefines(t *testing.T) {
	ps := NewParser()
	if err := ps.Define("dayEnd", "at time(HR=17)"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Define("pDrop", "pressure < low_limit"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Define("valveOpen", "relative(after motorStart, after motorStop)"); err != nil {
		t.Fatal(err)
	}
	e, err := ps.ParseEvent("relative(pDrop, valveOpen)")
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != EvRelative || e.Args[0].Op != EvMask || e.Args[1].Op != EvRelative {
		t.Fatalf("defines substitution: %s", e)
	}
	// A bare define at top level is an event.
	e, err = ps.ParseEvent("dayEnd")
	if err != nil || e.Op != EvTime {
		t.Fatalf("bare define: %v, %v", e, err)
	}
}

func TestParseTriggerDecl(t *testing.T) {
	ps := NewParser()
	d, err := ps.ParseTrigger("T1(): perpetual before withdraw && !authorized(user()) ==> tabort")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "T1" || !d.Perpetual || d.Action != "tabort" || len(d.Params) != 0 {
		t.Fatalf("decl %+v", d)
	}
	if d.Event.Op != EvBasic || d.Event.Mask == nil {
		t.Fatalf("event %+v", d.Event)
	}

	d, err = ps.ParseTrigger("T2(lvl): after withdraw(i, q) && q > lvl ==> order(i)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Perpetual || len(d.Params) != 1 || d.Params[0] != "lvl" || d.Action != "order(i)" {
		t.Fatalf("decl %+v", d)
	}

	// Typed trigger parameters.
	d, err = ps.ParseTrigger("T9(int lvl, Item it): after deposit ==> log()")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Params) != 2 || d.Params[0] != "lvl" || d.Params[1] != "it" {
		t.Fatalf("typed params %v", d.Params)
	}

	// State-shorthand trigger event.
	d, err = ps.ParseTrigger("Low(): balance < 500.00 ==> warn()")
	if err != nil {
		t.Fatal(err)
	}
	if d.Event.Op != EvMask {
		t.Fatalf("shorthand trigger event %+v", d.Event)
	}
}

func TestParsePaperT8(t *testing.T) {
	// T8: after deposit; before withdraw; after withdraw ==> printLog()
	ps := NewParser()
	d, err := ps.ParseTrigger("T8(): perpetual after deposit; before withdraw; after withdraw ==> printLog()")
	if err != nil {
		t.Fatal(err)
	}
	if d.Event.Op != EvSequence || len(d.Event.Args) != 3 {
		t.Fatalf("T8 event %s", d.Event)
	}
}

func TestParsePaperT4(t *testing.T) {
	ps := NewParser()
	if err := ps.Define("dayBegin", "at time(HR=9)"); err != nil {
		t.Fatal(err)
	}
	src := `relative(dayBegin,
	          prior(choose 5 (after tcommit), after tcommit)
	          & !prior(dayBegin, after tcommit))`
	e, err := ps.ParseEvent(src)
	if err != nil {
		t.Fatal(err)
	}
	if e.Op != EvRelative || e.Args[1].Op != EvAnd {
		t.Fatalf("T4 shape: %s", e)
	}
}

func TestParseErrors(t *testing.T) {
	ps := NewParser()
	for _, src := range []string{
		"",
		"relative(after a",
		"choose (after a)",
		"choose 0 (after a)",
		"every 0 (after a)",
		"prior 0 (after a, after b)",
		"fa(after a, after b)",
		"fa(after a, after b, after c, after d)",
		"after",
		"before time(HR=1)",
		"at time(BAD=1)",
		"at time(HR=)",
		"relative 2 (after a, after b)",
		"after a ==> foo",
		"after a | ",
		"relative +(after a)", // relative+ is written without a space
	} {
		if _, err := ps.ParseEvent(src); err == nil {
			t.Errorf("ParseEvent(%q) succeeded", src)
		}
	}
	for _, src := range []string{
		"T1: after a ==> x",
		"T1() after a ==> x",
		"T1(): after a",
		"T1(): after a ==>",
		"(): after a ==> x",
	} {
		if _, err := ps.ParseTrigger(src); err == nil {
			t.Errorf("ParseTrigger(%q) succeeded", src)
		}
	}
}

func TestEventStringRoundTrip(t *testing.T) {
	ps := NewParser()
	srcs := []string{
		"after withdraw(i, q) && q > 1000",
		"relative(after motorStart, after motorStop)",
		"fa(after tbegin, prior(after update, after tcommit), after tcommit | after tabort)",
		"choose 5 (after tcommit)",
		"every 5 (after access)",
		"after deposit; before withdraw; after withdraw",
		"!(before deposit | after deposit)",
		"at time(HR=9)",
	}
	for _, src := range srcs {
		e, err := ps.ParseEvent(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		again, err := ps.ParseEvent(e.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", e.String(), src, err)
		}
		if e.String() != again.String() {
			t.Errorf("%q: unstable rendering %q vs %q", src, e.String(), again.String())
		}
	}
}

// eventMasks returns the rendering of every mask in e, in pre-order.
func eventMasks(e *Event) []string {
	var out []string
	if e.Mask != nil {
		out = append(out, e.Mask.String())
	}
	for _, a := range e.Args {
		out = append(out, eventMasks(a)...)
	}
	return out
}

// TestMaskEndsWhereEventSyntaxResumes: a mask inside an event is parsed
// by package mask's grammar at the event parser's cursor, and it ends
// before the first token that cannot continue a mask — the event
// operators "&", "|" and ";", the "==>" of a trigger, and the ")" or ","
// of an operator's argument list — while "&&" and "||" stay inside it.
func TestMaskEndsWhereEventSyntaxResumes(t *testing.T) {
	for _, tc := range []struct {
		src   string
		op    EvOp
		masks []string
	}{
		{"after a && x > 1 & after b", EvAnd, []string{"(x > 1)"}},
		{"after a && x > 1 | after b", EvOr, []string{"(x > 1)"}},
		{"after a && x > 1; after b", EvSequence, []string{"(x > 1)"}},
		{"relative(after a && x > 1, after b)", EvRelative, []string{"(x > 1)"}},
		{"relative(after b, after a && f(x, 2) > 1)", EvRelative, []string{"(f(x, 2) > 1)"}},
		{"after a && x > 1 && y < 2 || z", EvBasic, []string{"(((x > 1) && (y < 2)) || z)"}},
		{"(after a | after b) && n > 0 & after c", EvAnd, []string{"(n > 0)"}},
		{"relative+(after a && x > 1)", EvRelPlus, []string{"(x > 1)"}},
		{"T(): after a && x > 1 ==> act", EvBasic, []string{"(x > 1)"}},
		{"T(): after a && x > 1 | after b && y == 'z' ==> act", EvOr, []string{"(x > 1)", `(y == "z")`}},
	} {
		ps := NewParser()
		var e *Event
		var err error
		if strings.Contains(tc.src, "==>") {
			var d *TriggerDecl
			if d, err = ps.ParseTrigger(tc.src); err == nil {
				e = d.Event
				if d.Action != "act" {
					t.Errorf("%q: action %q", tc.src, d.Action)
				}
			}
		} else {
			e, err = ps.ParseEvent(tc.src)
		}
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		if got := eventMasks(e); e.Op != tc.op || strings.Join(got, " ") != strings.Join(tc.masks, " ") {
			t.Errorf("%q: op %d masks %q, want op %d masks %q", tc.src, e.Op, got, tc.op, tc.masks)
		}
	}
}

// TestMaskErrorOffsetInTrigger: a malformed mask inside a trigger is
// reported at its offset in the whole declaration, for a mask on a
// basic event and for the object-state shorthand alike.
func TestMaskErrorOffsetInTrigger(t *testing.T) {
	for _, tc := range []struct{ src, at string }{
		{"T(): after withdraw(i, q) && q > * 3 ==> log()", "*"},
		{"T(): relative(after a && x >, after b) ==> act", ","},
		{"Low(): balance < ==> warn()", "==>"},
		{`T(): after a && s == "\q" ==> act`, `q"`},
	} {
		_, err := NewParser().ParseTrigger(tc.src)
		want := fmt.Sprintf("at offset %d in", strings.Index(tc.src, tc.at))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseTrigger(%q) = %v, want an error %s", tc.src, err, want)
		}
	}
}

// TestEventErrorOffset: each of the event grammar's own errors points at
// the token it names, one row per reporting site.
func TestEventErrorOffset(t *testing.T) {
	for _, tc := range []struct {
		src     string
		trigger bool
		at      int
	}{
		{"choose x (after a)", false, 7},    // parseCount: not an integer
		{"choose 0 (after a)", false, 7},    // parseCount: not positive
		{"every x (after a)", false, 6},     // parseTimeSpec: not time(...)
		{"at time(1=2)", false, 8},          // parseTimeSpec: not a field name
		{"at time(HR=x)", false, 11},        // parseTimeSpec: not an integer
		{"at time(WK=2)", false, 8},         // parseTimeSpec: unknown field
		{"after deposit(1)", false, 14},     // parseFormal
		{"after 5", false, 6},               // parseQualifiedBasic: not a name
		{"before time(M=5)", false, 7},      // parseQualifiedBasic: before time
		{"5(): after a ==> x", true, 0},     // trigger name
		{"T(n, 3): after a ==> x", true, 5}, // parseFormal in a trigger's parameters
	} {
		var err error
		if tc.trigger {
			_, err = NewParser().ParseTrigger(tc.src)
		} else {
			_, err = NewParser().ParseEvent(tc.src)
		}
		want := fmt.Sprintf("at offset %d in", tc.at)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parsing %q = %v, want an error %s", tc.src, err, want)
		}
	}
}

// TestTriggerActionIsNotLexed: a declaration is lexed only up to its
// ==>, so the action may hold what the mask lexer rejects, and a ==>
// inside a mask's string literal is not the arrow.
func TestTriggerActionIsNotLexed(t *testing.T) {
	d, err := NewParser().ParseTrigger("T(): after a ==> x@y")
	if err != nil || d.Action != "x@y" {
		t.Fatalf(`ParseTrigger("T(): after a ==> x@y") = %+v, %v; want action "x@y"`, d, err)
	}
	d, err = NewParser().ParseTrigger(`T(): after a && s == "==>" ==> act`)
	if err != nil || d.Action != "act" || !strings.Contains(d.Event.String(), `"==>"`) {
		t.Fatalf("ParseTrigger with ==> in a string literal = %+v, %v", d, err)
	}
}
