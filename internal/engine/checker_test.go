package engine

import (
	"testing"

	"ode/internal/oracle"
)

// attachChecker installs the §4 / §6 trace checker (internal/oracle) on
// e, which has run no transaction yet. The trace keeps capacity events
// between two drains (checkTrace).
func attachChecker(e *Engine, capacity int) *oracle.Checker {
	chk := oracle.New()
	chk.Attach(e.EnableTracing(capacity), func(name string) *oracle.Class {
		c := e.Class(name)
		if c == nil {
			return nil
		}
		oc := &oracle.Class{Alphabet: c.Res.Alphabet}
		for _, t := range c.Triggers {
			oc.Triggers = append(oc.Triggers, oracle.Trigger{Res: t.Res, View: t.View})
		}
		return oc
	})
	return chk
}

// checkTrace has chk read e's trace so far and check e's stored trigger
// state, at a point where no transaction is running.
func checkTrace(t testing.TB, chk *oracle.Checker, e *Engine) {
	t.Helper()
	if err := chk.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Verify(e.st); err != nil {
		t.Fatal(err)
	}
}
