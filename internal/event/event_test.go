package event

import (
	"testing"
	"time"

	"ode/internal/value"
)

func TestPhaseAndClassStrings(t *testing.T) {
	if Before.String() != "before" || After.String() != "after" {
		t.Fatal("phase strings")
	}
	want := map[Class]string{
		KMethod: "method", KCreate: "create", KDelete: "delete",
		KTbegin: "tbegin", KTcomplete: "tcomplete", KTcommit: "tcommit",
		KTabort: "tabort", KTimer: "timer",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Class(%d) = %q want %q", c, c.String(), s)
		}
	}
	if Class(99).String() != "class(99)" {
		t.Fatal("unknown class string")
	}
}

func TestKindIdentityAndStrings(t *testing.T) {
	a := MethodKind(After, "withdraw")
	b := MethodKind(After, "withdraw")
	if a != b {
		t.Fatal("method kinds must be comparable equal")
	}
	if a == MethodKind(Before, "withdraw") || a == MethodKind(After, "deposit") {
		t.Fatal("distinct kinds compared equal")
	}
	if a.String() != "after withdraw" {
		t.Fatalf("kind string %q", a)
	}
	tk := TimerKind("at time(HR=9)")
	if tk.String() != "timer at time(HR=9)" {
		t.Fatalf("timer string %q", tk)
	}
	lc := Kind{Phase: After, Class: KTcommit}
	if lc.String() != "after tcommit" {
		t.Fatalf("lifecycle string %q", lc)
	}
	// Kinds work as map keys across categories.
	m := map[Kind]int{a: 1, tk: 2, lc: 3}
	if len(m) != 3 {
		t.Fatal("kind map collision")
	}
}

func TestHappeningCarriesPayload(t *testing.T) {
	h := Happening{
		Kind:   MethodKind(Before, "deposit"),
		Params: []value.Value{value.Int(7)},
		TxID:   42,
		At:     time.Unix(100, 0),
	}
	if h.Params[0].AsInt() != 7 || h.TxID != 42 {
		t.Fatalf("happening %+v", h)
	}
}
