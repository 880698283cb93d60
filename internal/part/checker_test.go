package part

import (
	"testing"

	"ode/internal/engine"
	"ode/internal/oracle"
)

// attachCheckers installs the §4 / §6 trace checker (internal/oracle) on
// every partition of db, which has run no transaction yet.
func attachCheckers(db *DB) []*oracle.Checker {
	var chks []*oracle.Checker
	for p := range db.parts {
		e := db.Partition(p).Engine()
		chk := oracle.New()
		chk.Attach(e.EnableTracing(1<<14), func(name string) *oracle.Class {
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
		chks = append(chks, chk)
	}
	return chks
}

// checkTraces has every partition's checker read its trace so far and
// check the partition's stored trigger state, once db is idle.
func checkTraces(t testing.TB, db *DB, chks []*oracle.Checker) {
	t.Helper()
	db.Drain()
	for p, chk := range chks {
		if err := chk.Drain(); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		err := db.Do(p, func(e *engine.Engine) error { return chk.Verify(e.Store()) })
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
}
