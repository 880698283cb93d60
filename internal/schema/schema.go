// Package schema defines class metadata for the Ode object model
// (paper §2): typed fields, member-function signatures with access
// modes, and trigger declarations. A schema is pure description — the
// engine binds method implementations and trigger actions to it at
// registration time.
package schema

import (
	"fmt"

	"ode/internal/value"
)

// AccessMode classifies what a member function does to the object
// state; it drives the derived object-state events (paper §3.1 item 1:
// update / read / access through a public member function).
type AccessMode int

const (
	// ModeRead marks a member function that only reads the object.
	ModeRead AccessMode = iota
	// ModeUpdate marks a member function that may modify the object.
	ModeUpdate
)

func (m AccessMode) String() string {
	if m == ModeRead {
		return "read"
	}
	return "update"
}

// Param describes one formal parameter of a member function or a
// trigger. Parameter names are usable in masks (paper §3.1: "these
// parameters can also be used for defining predicates").
type Param struct {
	Name string
	Kind value.Kind
}

// Field describes one typed field of a class.
type Field struct {
	Name    string
	Kind    value.Kind
	Default value.Value
}

// Method describes a public member function.
type Method struct {
	Name   string
	Params []Param
	Mode   AccessMode
}

// ParamIndex returns the declared position of the named parameter, or
// -1. A nil method — a happening that is no method execution — has none.
func (m *Method) ParamIndex(name string) int {
	if m != nil {
		for i := range m.Params {
			if m.Params[i].Name == name {
				return i
			}
		}
	}
	return -1
}

// HistoryView selects which event history a trigger observes
// (paper §6): the whole history including aborted transactions'
// operations, or only committed operations. In both views the trigger's
// state is stored with the object and is durable; the views differ in
// what an abort does with it.
type HistoryView int

const (
	// CommittedView sees only committed transactions' events: trigger
	// state is rolled back on abort with the rest of the object.
	CommittedView HistoryView = iota
	// WholeView sees every event, aborted transactions included: an
	// abort keeps the automaton state the aborted transaction left, while
	// activation and activation parameters are rolled back like
	// everything else.
	WholeView
)

func (v HistoryView) String() string {
	if v == WholeView {
		return "whole"
	}
	return "committed"
}

// Trigger declares a trigger on a class (paper §2):
//
//	trigger-name(parameters): [perpetual] event ==> trigger-action
//
// Event holds the event-expression source in the O++ surface syntax of
// internal/evlang; the action is bound by the engine.
type Trigger struct {
	Name      string
	Params    []Param
	Perpetual bool
	Event     string
	View      HistoryView
}

// Class describes an object type.
type Class struct {
	Name     string
	Fields   []Field
	Methods  []Method
	Triggers []Trigger
}

// Validate checks structural well-formedness: non-empty unique names
// throughout, known field kinds, and defaults matching their field
// kinds.
func (c *Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("schema: class with empty name")
	}
	fieldNames := map[string]bool{}
	for _, f := range c.Fields {
		if f.Name == "" {
			return fmt.Errorf("schema: class %s: field with empty name", c.Name)
		}
		if fieldNames[f.Name] {
			return fmt.Errorf("schema: class %s: duplicate field %q", c.Name, f.Name)
		}
		fieldNames[f.Name] = true
		switch f.Kind {
		case value.KindInt, value.KindFloat, value.KindBool, value.KindString,
			value.KindTime, value.KindID:
		default:
			return fmt.Errorf("schema: class %s: field %q has invalid kind %s", c.Name, f.Name, f.Kind)
		}
		if !f.Default.IsNull() && f.Default.Kind != f.Kind {
			return fmt.Errorf("schema: class %s: field %q default is %s, want %s",
				c.Name, f.Name, f.Default.Kind, f.Kind)
		}
	}
	methodNames := map[string]bool{}
	for _, m := range c.Methods {
		if m.Name == "" {
			return fmt.Errorf("schema: class %s: method with empty name", c.Name)
		}
		if methodNames[m.Name] {
			// O++ allows overloading distinguished by signature; this
			// model keeps one signature per name for clarity.
			return fmt.Errorf("schema: class %s: duplicate method %q", c.Name, m.Name)
		}
		methodNames[m.Name] = true
		if err := validateParams(c.Name, m.Name, m.Params); err != nil {
			return err
		}
	}
	trigNames := map[string]bool{}
	for _, tr := range c.Triggers {
		if tr.Name == "" {
			return fmt.Errorf("schema: class %s: trigger with empty name", c.Name)
		}
		if trigNames[tr.Name] {
			return fmt.Errorf("schema: class %s: duplicate trigger %q", c.Name, tr.Name)
		}
		trigNames[tr.Name] = true
		if tr.Event == "" {
			return fmt.Errorf("schema: class %s: trigger %q has no event", c.Name, tr.Name)
		}
		if err := validateParams(c.Name, tr.Name, tr.Params); err != nil {
			return err
		}
	}
	return nil
}

func validateParams(class, owner string, params []Param) error {
	seen := map[string]bool{}
	for _, p := range params {
		if p.Name == "" {
			return fmt.Errorf("schema: class %s: %s: parameter with empty name", class, owner)
		}
		if seen[p.Name] {
			return fmt.Errorf("schema: class %s: %s: duplicate parameter %q", class, owner, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method {
	for i := range c.Methods {
		if c.Methods[i].Name == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// Field returns the named field, or nil.
func (c *Class) Field(name string) *Field {
	for i := range c.Fields {
		if c.Fields[i].Name == name {
			return &c.Fields[i]
		}
	}
	return nil
}

// Trigger returns the named trigger, or nil.
func (c *Class) Trigger(name string) *Trigger {
	for i := range c.Triggers {
		if c.Triggers[i].Name == name {
			return &c.Triggers[i]
		}
	}
	return nil
}
