package sim

import (
	"ode/internal/engine"
	"ode/internal/oracle"
)

// traceCapacity sizes the trace an attached checker drains: enough for
// the largest script operation — a batch with its cascades and commit
// rounds — between two drains. A lapped ring fails the run.
const traceCapacity = 1 << 14

// Attach installs a fresh trace on e, which has run no transaction yet,
// and makes it the trace chk drains, resolving classes through e.
func Attach(chk *oracle.Checker, e *engine.Engine) {
	chk.Attach(e.EnableTracing(traceCapacity), classes(e))
}

// classes resolves e's registered classes for the trace checker.
func classes(e *engine.Engine) oracle.Classes {
	return func(name string) *oracle.Class {
		c := e.Class(name)
		if c == nil {
			return nil
		}
		oc := &oracle.Class{Alphabet: c.Res.Alphabet}
		for _, t := range c.Triggers {
			oc.Triggers = append(oc.Triggers, oracle.Trigger{Res: t.Res, View: t.View})
		}
		return oc
	}
}
