package schema

import (
	"strings"
	"testing"

	"ode/internal/value"
)

func stockRoom() *Class {
	return &Class{
		Name: "stockRoom",
		Fields: []Field{
			{Name: "n", Kind: value.KindInt, Default: value.Int(0)},
			{Name: "balance", Kind: value.KindInt},
		},
		Methods: []Method{
			{Name: "deposit", Params: []Param{{"i", value.KindID}, {"q", value.KindInt}}, Mode: ModeUpdate},
			{Name: "withdraw", Params: []Param{{"i", value.KindID}, {"q", value.KindInt}}, Mode: ModeUpdate},
			{Name: "summary", Mode: ModeRead},
		},
		Triggers: []Trigger{
			{Name: "T6", Perpetual: true, Event: "after withdraw && q > 100"},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := stockRoom().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Class)
		want   string
	}{
		{func(c *Class) { c.Name = "" }, "empty name"},
		{func(c *Class) { c.Fields[0].Name = "" }, "field with empty name"},
		{func(c *Class) { c.Fields[1].Name = "n" }, "duplicate field"},
		{func(c *Class) { c.Fields[0].Kind = value.KindNull }, "invalid kind"},
		{func(c *Class) { c.Fields[0].Default = value.Str("x") }, "default"},
		{func(c *Class) { c.Methods[0].Name = "" }, "method with empty name"},
		{func(c *Class) { c.Methods[1].Name = "deposit" }, "duplicate method"},
		{func(c *Class) { c.Methods[0].Params[1].Name = "i" }, "duplicate parameter"},
		{func(c *Class) { c.Methods[0].Params[0].Name = "" }, "parameter with empty name"},
		{func(c *Class) { c.Triggers[0].Name = "" }, "trigger with empty name"},
		{func(c *Class) { c.Triggers = append(c.Triggers, c.Triggers[0]) }, "duplicate trigger"},
		{func(c *Class) { c.Triggers[0].Event = "" }, "no event"},
	}
	for i, tc := range cases {
		c := stockRoom()
		tc.mutate(c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: Validate succeeded, want error containing %q", i, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestLookups(t *testing.T) {
	c := stockRoom()
	if m := c.Method("withdraw"); m == nil || m.Mode != ModeUpdate || len(m.Params) != 2 {
		t.Fatalf("Method(withdraw) = %+v", m)
	}
	if c.Method("nosuch") != nil {
		t.Fatal("found nonexistent method")
	}
	if f := c.Field("balance"); f == nil || f.Kind != value.KindInt {
		t.Fatalf("Field(balance) = %+v", f)
	}
	if c.Field("nosuch") != nil {
		t.Fatal("found nonexistent field")
	}
	if tr := c.Trigger("T6"); tr == nil || !tr.Perpetual {
		t.Fatalf("Trigger(T6) = %+v", tr)
	}
	if c.Trigger("nosuch") != nil {
		t.Fatal("found nonexistent trigger")
	}
}

func TestModeAndViewStrings(t *testing.T) {
	if ModeRead.String() != "read" || ModeUpdate.String() != "update" {
		t.Fatal("AccessMode strings")
	}
	if CommittedView.String() != "committed" || WholeView.String() != "whole" {
		t.Fatal("HistoryView strings")
	}
}
