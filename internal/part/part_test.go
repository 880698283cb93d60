package part

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ode/internal/engine"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// fireLog collects firings as "trigger/oid" strings; shared across
// partitions (actions append under one mutex).
type fireLog struct {
	mu    sync.Mutex
	fires []string
}

func (l *fireLog) add(s string) {
	l.mu.Lock()
	l.fires = append(l.fires, s)
	l.mu.Unlock()
}

func (l *fireLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.fires...)
}

func (l *fireLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fires)
}

// bankClass is the test class: two updates, a masked trigger, a
// composite, and an unmasked perpetual.
func bankClass(log *fireLog, extra ...schema.Trigger) (*schema.Class, engine.ClassImpl) {
	cls := &schema.Class{
		Name:   "account",
		Fields: []schema.Field{{Name: "balance", Kind: value.KindInt, Default: value.Int(1000)}},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "a", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "a", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"},
			{Name: "Pair", Perpetual: true, Event: "prior(after deposit, after withdraw)"},
			{Name: "AnyDep", Perpetual: true, Event: "after deposit"},
		},
	}
	cls.Triggers = append(cls.Triggers, extra...)
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"deposit": func(ctx *engine.MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()+ctx.Arg("a").AsInt()))
			},
			"withdraw": func(ctx *engine.MethodCtx) (value.Value, error) {
				b, _ := ctx.Get("balance")
				return value.Null(), ctx.Set("balance", value.Int(b.AsInt()-ctx.Arg("a").AsInt()))
			},
		},
		Actions: map[string]engine.ActionFunc{},
	}
	names := []string{"Large", "Pair", "AnyDep"}
	for _, tr := range extra {
		names = append(names, tr.Name)
	}
	for _, name := range names {
		n := name
		impl.Actions[n] = func(ctx *engine.ActionCtx) error {
			if log != nil {
				log.add(fmt.Sprintf("%s/%d", n, ctx.Self))
			}
			return nil
		}
	}
	return cls, impl
}

// openBank opens an N-partition DB with the bank class registered on
// every partition.
func openBank(t *testing.T, n int, dir string, log *fireLog, opts engine.Options, extra ...schema.Trigger) *DB {
	t.Helper()
	db, err := Open(Options{N: n, Dir: dir, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	cls, impl := bankClass(log, extra...)
	if err := db.Register(func(_ int, e *engine.Engine) error {
		_, rerr := e.RegisterClass(cls, impl, nil)
		return rerr
	}); err != nil {
		db.Close()
		t.Fatal(err)
	}
	return db
}

// newAccounts creates one activated account per partition and returns
// the OIDs in partition order.
func newAccounts(t *testing.T, db *DB) []store.OID {
	t.Helper()
	oids := make([]store.OID, db.N())
	for p := range oids {
		err := db.Transact(p, func(tx *engine.Tx) error {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			oids[p] = oid
			for _, name := range []string{"Large", "Pair", "AnyDep"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return oids
}

// TestPartitionedPostingBasics drives calls to objects on every
// partition and checks trigger state, firings and stats aggregate.
func TestPartitionedPostingBasics(t *testing.T) {
	log := &fireLog{}
	db := openBank(t, 4, "", log, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	for _, oid := range oids {
		if _, err := db.Call(oid, "deposit", value.Int(50)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Call(oid, "withdraw", value.Int(200)); err != nil {
			t.Fatal(err)
		}
	}
	db.Drain()

	// Each account: AnyDep on the deposit, Large + Pair on the withdraw.
	if got := log.count(); got != 3*len(oids) {
		t.Fatalf("firings = %d, want %d (%v)", got, 3*len(oids), log.list())
	}
	for _, oid := range oids {
		st, active, err := db.TriggerState(oid, "AnyDep")
		if err != nil || !active {
			t.Fatalf("TriggerState(%d): state=%d active=%v err=%v", oid, st, active, err)
		}
	}
	agg := db.Stats()
	if agg.Firings != uint64(3*len(oids)) {
		t.Fatalf("aggregate Firings = %d, want %d", agg.Firings, 3*len(oids))
	}
	var sum uint64
	for _, s := range db.PartitionStats() {
		sum += s.Firings
	}
	if sum != agg.Firings {
		t.Fatalf("per-partition firing sum %d != aggregate %d", sum, agg.Firings)
	}
	if err := db.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRecoveryIndependent crashes a persistent partitioned
// DB and reopens it: each partition recovers from its own WAL, OIDs
// keep routing to their original partitions, and allocation resumes
// without collisions.
func TestPartitionedRecoveryIndependent(t *testing.T) {
	dir := t.TempDir()
	log := &fireLog{}
	db := openBank(t, 3, dir, log, engine.Options{})
	oids := newAccounts(t, db)
	for _, oid := range oids {
		if _, err := db.Call(oid, "deposit", value.Int(7)); err != nil {
			t.Fatal(err)
		}
	}
	db.Drain()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openBank(t, 3, dir, log, engine.Options{})
	defer db2.Close()
	if err := db2.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
	for p, oid := range oids {
		if got := db2.PartitionOf(oid); got != p {
			t.Fatalf("object %d routed to %d after reopen, want %d", oid, got, p)
		}
		var bal int64
		err := db2.Transact(p, func(tx *engine.Tx) error {
			v, err := tx.Get(oid, "balance")
			bal = v.AsInt()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if bal != 1007 {
			t.Fatalf("object %d balance = %d after recovery, want 1007", oid, bal)
		}
	}
	// New allocations stay in each partition's residue class and do not
	// collide with recovered objects.
	fresh := newAccounts(t, db2)
	for p, oid := range fresh {
		if oid == oids[p] {
			t.Fatalf("partition %d reallocated OID %d", p, oid)
		}
		if got := db2.PartitionOf(oid); got != p {
			t.Fatalf("fresh object %d routed to %d, want %d", oid, got, p)
		}
	}
	if err := db2.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenWithOtherPartitionCountFails: a partition's store accepts
// only the OIDs of its residue class, so opening a directory with
// another N fails and names an object instead of routing it elsewhere.
func TestReopenWithOtherPartitionCountFails(t *testing.T) {
	dir := t.TempDir()
	log := &fireLog{}
	db := openBank(t, 2, dir, log, engine.Options{})
	newAccounts(t, db)
	newAccounts(t, db) // partition 0 now holds objects 1 and 3
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{N: 3, Dir: dir}); err == nil {
		db.Close()
		t.Fatal("a 2-partition directory opened with 3 partitions")
	} else if !strings.Contains(err.Error(), "object 3 ") {
		t.Fatalf("reopen with 3 partitions: %v, want an error naming object 3", err)
	}
	db = openBank(t, 2, dir, log, engine.Options{})
	defer db.Close()
	if err := db.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
}

// TestTransactIsPartitionLocal pins the partition-local transaction
// contract: accessing an OID owned by another partition fails (the
// object does not exist in this partition's store) instead of
// silently touching foreign state.
func TestTransactIsPartitionLocal(t *testing.T) {
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	err := db.Transact(0, func(tx *engine.Tx) error {
		_, err := tx.Call(oids[1], "deposit", value.Int(1))
		return err
	})
	if err == nil {
		t.Fatal("cross-partition access inside a transaction succeeded")
	}
}

// TestDoFromLoopWouldDeadlockUseRelay documents the supported
// cross-partition path from actions: Relay, not Do. An action on
// partition 0 relays a call to partition 1; after Drain the forwarded
// call has executed there.
func TestRelayFromAction(t *testing.T) {
	log := &fireLog{}
	db := openBank(t, 2, "", log, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	// Rebind Large's action on partition 0 to relay a deposit to the
	// partner account on partition 1. Registration already happened, so
	// install a fresh class under a new name instead.
	cls, impl := bankClass(nil)
	cls.Name = "relayacct"
	impl.Actions["Large"] = func(ctx *engine.ActionCtx) error {
		db.RelayCall(0, oids[1], "deposit", value.Int(500))
		return nil
	}
	if err := db.Register(func(_ int, e *engine.Engine) error {
		_, err := e.RegisterClass(cls, impl, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var src store.OID
	err := db.Transact(0, func(tx *engine.Tx) error {
		oid, err := tx.NewObject("relayacct", nil)
		if err != nil {
			return err
		}
		src = oid
		return tx.Activate(oid, "Large")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call(src, "withdraw", value.Int(999)); err != nil {
		t.Fatal(err)
	}
	db.Drain()
	if errs := db.RelayErrors(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
	var bal int64
	err = db.Transact(1, func(tx *engine.Tx) error {
		v, err := tx.Get(oids[1], "balance")
		bal = v.AsInt()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if bal != 1500 {
		t.Fatalf("relayed deposit not applied: balance = %d, want 1500", bal)
	}
	// The forwarded deposit drove partition 1's automata: AnyDep fired
	// on the partner account.
	found := false
	for _, f := range log.list() {
		if f == fmt.Sprintf("AnyDep/%d", oids[1]) {
			found = true
		}
	}
	if !found {
		t.Fatalf("AnyDep did not fire on the relayed deposit: %v", log.list())
	}
}
