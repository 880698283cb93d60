package evlang

import (
	"fmt"
	"strings"
	"testing"

	"ode/internal/algebra"
	"ode/internal/compile"
	"ode/internal/event"
	"ode/internal/schema"
	"ode/internal/value"
)

// testClass is a cut-down stockRoom.
func testClass(triggers ...schema.Trigger) *schema.Class {
	return &schema.Class{
		Name: "stockRoom",
		Fields: []schema.Field{
			{Name: "n", Kind: value.KindInt, Default: value.Int(0)},
			{Name: "low_limit", Kind: value.KindFloat},
		},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "item", Kind: value.KindID}, {Name: "qty", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "item", Kind: value.KindID}, {Name: "qty", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "summary", Mode: schema.ModeRead},
		},
		Triggers: triggers,
	}
}

func resolveOne(t *testing.T, eventSrc string, params ...schema.Param) (*ClassResolution, *TriggerResolution) {
	t.Helper()
	cls := testClass(schema.Trigger{Name: "T", Event: eventSrc, Params: params})
	cr, err := ResolveClass(cls, ForClass(cls))
	if err != nil {
		t.Fatalf("resolve %q: %v", eventSrc, err)
	}
	return cr, cr.Triggers[0]
}

func TestAlphabetKindSpace(t *testing.T) {
	cr, _ := resolveOne(t, "after withdraw")
	// create + delete + 2×3 methods + 5 transaction kinds = 13 kinds,
	// no masks → 13 symbols.
	if len(cr.Alphabet.Kinds) != 13 {
		t.Fatalf("kinds = %d", len(cr.Alphabet.Kinds))
	}
	if cr.Alphabet.NumSymbols != 13 {
		t.Fatalf("symbols = %d", cr.Alphabet.NumSymbols)
	}
}

func TestMaskedKindGetsBlock(t *testing.T) {
	cr, tr := resolveOne(t, "after withdraw(i, q) && q > 100")
	// One mask on after-withdraw: its block has 2 symbols.
	kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, "withdraw"))
	if kix < 0 {
		t.Fatal("missing kind")
	}
	if got := cr.Alphabet.Kinds[kix].Block(); got != 2 {
		t.Fatalf("block = %d", got)
	}
	if cr.Alphabet.NumSymbols != 14 {
		t.Fatalf("symbols = %d", cr.Alphabet.NumSymbols)
	}
	if tr.UsedBits[kix] != 1 {
		t.Fatalf("used bits = %b", tr.UsedBits[kix])
	}
	// The rename maps formals to schema names.
	ref := cr.Alphabet.Kinds[kix].Masks[0]
	if ref.Rename["i"] != "item" || ref.Rename["q"] != "qty" {
		t.Fatalf("rename = %v", ref.Rename)
	}
}

func TestSharedAlphabetDedupesMasks(t *testing.T) {
	cls := testClass(
		schema.Trigger{Name: "A", Event: "after withdraw(i, q) && q > 100"},
		schema.Trigger{Name: "B", Event: "choose 5 (after withdraw(i, q) && q > 100)"},
		schema.Trigger{Name: "C", Event: "after withdraw(x, y) && y > 100"},
	)
	cr, err := ResolveClass(cls, ForClass(cls))
	if err != nil {
		t.Fatal(err)
	}
	kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, "withdraw"))
	// A and B share one mask; C's formals differ so its rename differs
	// → a second mask bit.
	if got := len(cr.Alphabet.Kinds[kix].Masks); got != 2 {
		t.Fatalf("masks on after-withdraw = %d, want 2", got)
	}
}

func TestUpdateReadAccessSelectors(t *testing.T) {
	cr, tr := resolveOne(t, "after update")
	// deposit and withdraw are updates; summary is a read.
	wantSyms := map[int]bool{}
	for _, m := range []string{"deposit", "withdraw"} {
		kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, m))
		wantSyms[cr.Alphabet.Symbol(kix, 0)] = true
	}
	var atoms []int
	tr.Expr.Walk(func(e *algebra.Expr) {
		if e.Op == algebra.OpAtom {
			atoms = append(atoms, e.Sym)
		}
	})
	if len(atoms) != 2 {
		t.Fatalf("atoms = %v", atoms)
	}
	for _, a := range atoms {
		if !wantSyms[a] {
			t.Fatalf("unexpected atom %d", a)
		}
	}

	_, trRead := resolveOne(t, "before read")
	var readAtoms int
	trRead.Expr.Walk(func(e *algebra.Expr) {
		if e.Op == algebra.OpAtom {
			readAtoms++
		}
	})
	if readAtoms != 1 {
		t.Fatalf("read atoms = %d", readAtoms)
	}

	_, trAcc := resolveOne(t, "after access")
	var accAtoms int
	trAcc.Expr.Walk(func(e *algebra.Expr) {
		if e.Op == algebra.OpAtom {
			accAtoms++
		}
	})
	if accAtoms != 3 {
		t.Fatalf("access atoms = %d", accAtoms)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []string{
		"after nosuchmethod",
		"before create",
		"after delete",
		"before tbegin",
		"after tcomplete",
		"before tcommit",
		"after withdraw(a, b, c)",         // arity mismatch
		"after withdraw && nosuchvar > 1", // unresolvable mask var
		"after update && qty > 1",         // qty not on summary? (update = deposit+withdraw, both have qty → ok!)
	}
	for _, src := range cases[:8] {
		cls := testClass(schema.Trigger{Name: "T", Event: src})
		if _, err := ResolveClass(cls, ForClass(cls)); err == nil {
			t.Errorf("resolve %q succeeded", src)
		}
	}
	// qty is a parameter of every update method, so this resolves.
	cls := testClass(schema.Trigger{Name: "T", Event: "after update && qty > 1"})
	if _, err := ResolveClass(cls, ForClass(cls)); err != nil {
		t.Errorf("after update && qty > 1: %v", err)
	}
	// n is a field: always available.
	cls = testClass(schema.Trigger{Name: "T", Event: "after access && n > 0"})
	if _, err := ResolveClass(cls, ForClass(cls)); err != nil {
		t.Errorf("field mask: %v", err)
	}
	// Composite masks cannot use event parameters.
	cls = testClass(schema.Trigger{Name: "T", Event: "(after withdraw | after deposit) && qty > 1"})
	if _, err := ResolveClass(cls, ForClass(cls)); err == nil {
		t.Error("composite mask with event parameter resolved")
	}
	// before tcommit has the paper's dedicated error.
	cls = testClass(schema.Trigger{Name: "T", Event: "before tcommit"})
	_, err := ResolveClass(cls, ForClass(cls))
	if err == nil || !strings.Contains(err.Error(), "not allowed") {
		t.Errorf("before tcommit error: %v", err)
	}
}

func TestTriggerParamInMask(t *testing.T) {
	cr, tr := resolveOne(t, "after withdraw(i, q) && q > lvl", schema.Param{Name: "lvl", Kind: value.KindInt})
	if len(tr.Params) != 1 || tr.Params[0] != "lvl" {
		t.Fatalf("params %v", tr.Params)
	}
	_ = cr
}

func TestTimeEventResolution(t *testing.T) {
	cr, tr := resolveOne(t, "relative(at time(HR=9), every 5 (after tcommit))")
	if len(tr.Timers) != 1 || tr.Timers[0].Mode != TimeAt || tr.Timers[0].Spec.Hour != 9 {
		t.Fatalf("timers = %+v", tr.Timers)
	}
	kix := cr.Alphabet.KindIndex(event.TimerKind("at time(HR=9)"))
	if kix < 0 {
		t.Fatal("timer kind missing from alphabet")
	}
	// Another trigger's timer also lands in the shared alphabet.
	cls := testClass(
		schema.Trigger{Name: "A", Event: "at time(HR=9)"},
		schema.Trigger{Name: "B", Event: "at time(HR=17)"},
	)
	cr2, err := ResolveClass(cls, ForClass(cls))
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Alphabet.KindIndex(event.TimerKind("at time(HR=9)")) < 0 ||
		cr2.Alphabet.KindIndex(event.TimerKind("at time(HR=17)")) < 0 {
		t.Fatal("shared alphabet missing a trigger's timer kind")
	}
}

func TestCompositeMaskBitsOnEveryKind(t *testing.T) {
	cr, tr := resolveOne(t, "(after deposit; after withdraw) && n > 0")
	for kix := range cr.Alphabet.Kinds {
		if len(cr.Alphabet.Kinds[kix].Masks) != 1 {
			t.Fatalf("kind %s: %d masks", cr.Alphabet.Kinds[kix].Kind, len(cr.Alphabet.Kinds[kix].Masks))
		}
		if tr.UsedBits[kix] != 1 {
			t.Fatalf("kind %s: used bits %b", cr.Alphabet.Kinds[kix].Kind, tr.UsedBits[kix])
		}
	}
	if cr.Alphabet.NumSymbols != 26 { // 13 kinds × 2
		t.Fatalf("symbols = %d", cr.Alphabet.NumSymbols)
	}
}

// TestResolvedExpressionsCompile runs the full §5 pipeline for the
// paper's stockRoom triggers T1–T8 and checks every one compiles to a
// reasonably small automaton (E3's size report).
func TestResolvedExpressionsCompile(t *testing.T) {
	cls := paperStockRoom()
	ps := ForClass(cls)
	if err := ps.Define("dayBegin", "at time(HR=9)"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Define("dayEnd", "at time(HR=17)"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Define("FifthLrgWdr", "choose 5 (after withdraw(i, q) && q > 100)"); err != nil {
		t.Fatal(err)
	}
	cr, err := ResolveClass(cls, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Triggers) != 8 {
		t.Fatalf("triggers = %d", len(cr.Triggers))
	}
	for _, tr := range cr.Triggers {
		d := compile.Compile(tr.Expr, cr.Alphabet.NumSymbols)
		if d.NumStates < 1 || d.NumStates > 200 {
			t.Fatalf("trigger %s: %d states", tr.Name, d.NumStates)
		}
	}
}

// paperStockRoom is the §3.5 stockRoom with its eight trigger events.
func paperStockRoom() *schema.Class {
	return &schema.Class{
		Name: "stockRoom",
		Fields: []schema.Field{
			{Name: "n", Kind: value.KindInt},
		},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "i", Kind: value.KindID}, {Name: "q", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "i", Kind: value.KindID}, {Name: "q", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "authorized", Params: []schema.Param{{Name: "u", Kind: value.KindString}}, Mode: schema.ModeRead},
			{Name: "log", Mode: schema.ModeUpdate},
			{Name: "order", Params: []schema.Param{{Name: "i", Kind: value.KindID}}, Mode: schema.ModeUpdate},
			{Name: "printLog", Mode: schema.ModeRead},
			{Name: "reorder", Params: []schema.Param{{Name: "i", Kind: value.KindID}}, Mode: schema.ModeRead},
			{Name: "report", Mode: schema.ModeRead},
			{Name: "summary", Mode: schema.ModeRead},
			{Name: "updateAverages", Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "T1", Perpetual: true, Event: "before withdraw && !authorized(user())"},
			{Name: "T2", Event: "after withdraw(i, q) && balance(i) < reorder(i)"},
			{Name: "T3", Perpetual: true, Event: "dayEnd"},
			{Name: "T4", Perpetual: true, Event: "relative(dayBegin, prior(choose 5 (after tcommit), after tcommit) & !prior(dayBegin, after tcommit))"},
			{Name: "T5", Perpetual: true, Event: "every 5 (after access)"},
			{Name: "T6", Perpetual: true, Event: "after withdraw(i, q) && q > 100"},
			{Name: "T7", Perpetual: true, Event: "fa(dayBegin, FifthLrgWdr, dayBegin)"},
			{Name: "T8", Perpetual: true, Event: "after deposit; before withdraw; after withdraw"},
		},
	}
}

func TestStockRoomAutomatonSizes(t *testing.T) {
	cls := paperStockRoom()
	ps := ForClass(cls)
	ps.Define("dayBegin", "at time(HR=9)")
	ps.Define("dayEnd", "at time(HR=17)")
	ps.Define("FifthLrgWdr", "choose 5 (after withdraw(i, q) && q > 100)")
	cr, err := ResolveClass(cls, ps)
	if err != nil {
		t.Fatal(err)
	}
	// T6 (a single masked logical event) must be the paper's trivial
	// 2-state automaton.
	d := compile.Compile(cr.Trigger("T6").Expr, cr.Alphabet.NumSymbols)
	if d.NumStates != 2 {
		t.Fatalf("T6 automaton has %d states, want 2", d.NumStates)
	}
	// T8 (3-step immediate sequence) needs 4 states.
	d8 := compile.Compile(cr.Trigger("T8").Expr, cr.Alphabet.NumSymbols)
	if d8.NumStates != 4 {
		t.Fatalf("T8 automaton has %d states, want 4", d8.NumStates)
	}
}

func TestSymbolName(t *testing.T) {
	cr, _ := resolveOne(t, "after withdraw(i, q) && q > 100")
	kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, "withdraw"))
	base := cr.Alphabet.Kinds[kix].Base
	if got := cr.Alphabet.SymbolName(base + 1); got != "after withdraw/1" {
		t.Fatalf("SymbolName = %q", got)
	}
	if got := cr.Alphabet.SymbolName(9999); got != "sym9999" {
		t.Fatalf("SymbolName out of range = %q", got)
	}
}

// TestMaskBlockDoublesPerMask pins §5's disjointness rewrite (E4): k
// distinct masks on one kind make that kind a block of 2^k symbols, so
// the class alphabet is the 12 other kinds plus 2^k, and the union of
// the masked variants still compiles to a small automaton.
func TestMaskBlockDoublesPerMask(t *testing.T) {
	for k := 1; k <= 6; k++ {
		var trigs []schema.Trigger
		union := ""
		for i := 0; i < k; i++ {
			ev := fmt.Sprintf("after withdraw(i, q) && q > %d", i*10)
			trigs = append(trigs, schema.Trigger{Name: fmt.Sprintf("T%d", i), Event: ev})
			if i > 0 {
				union += " | "
			}
			union += ev
		}
		cls := testClass(append(trigs, schema.Trigger{Name: "U", Event: union})...)
		cr, err := ResolveClass(cls, ForClass(cls))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, "withdraw"))
		if got := cr.Alphabet.Kinds[kix].Block(); got != 1<<k {
			t.Fatalf("k=%d: block = %d, want %d", k, got, 1<<k)
		}
		if cr.Alphabet.NumSymbols != 12+1<<k {
			t.Fatalf("k=%d: symbols = %d, want %d", k, cr.Alphabet.NumSymbols, 12+1<<k)
		}
		if d := compile.Compile(cr.Trigger("U").Expr, cr.Alphabet.NumSymbols); d.NumStates < 2 {
			t.Fatalf("k=%d: the union compiled to %d state(s)", k, d.NumStates)
		}
	}
}

func TestMaskExplosionGuard(t *testing.T) {
	// 13 distinct masks on one kind exceed maxMasksPerKind.
	var trigs []schema.Trigger
	for i := 0; i < 13; i++ {
		trigs = append(trigs, schema.Trigger{
			Name:  "T" + string(rune('A'+i)),
			Event: "after withdraw(i, q) && q > " + string(rune('0'+i%10)) + string(rune('0'+i/10)),
		})
	}
	cls := testClass(trigs...)
	_, err := ResolveClass(cls, ForClass(cls))
	if err == nil || !strings.Contains(err.Error(), "disjointness") {
		t.Fatalf("explosion guard: %v", err)
	}
}

func TestMethodNameKeywordCollisionRejected(t *testing.T) {
	for _, bad := range []string{"update", "tcommit", "relative", "time", "before"} {
		cls := &schema.Class{
			Name:    "c",
			Methods: []schema.Method{{Name: bad, Mode: schema.ModeUpdate}},
			Triggers: []schema.Trigger{
				{Name: "T", Event: "after tcommit"},
			},
		}
		if _, err := ResolveClass(cls, ForClass(cls)); err == nil {
			t.Errorf("method named %q accepted", bad)
		}
	}
}

func TestResolvedTriggerLookup(t *testing.T) {
	cr, _ := resolveOne(t, "after withdraw")
	if cr.Trigger("T") == nil || cr.Trigger("nosuch") != nil {
		t.Fatal("ClassResolution.Trigger lookup")
	}
}

func TestMaskRefKey(t *testing.T) {
	cr, _ := resolveOne(t, "after withdraw(i, q) && q > 100")
	kix := cr.Alphabet.KindIndex(event.MethodKind(event.After, "withdraw"))
	ref := cr.Alphabet.Kinds[kix].Masks[0]
	if ref.Key() == "" || !strings.Contains(ref.Key(), "q > 100") {
		t.Fatalf("mask key %q", ref.Key())
	}
}
