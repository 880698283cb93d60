package part

import (
	"testing"

	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

// depositBatch deposits amount into each of oids in one batch.
func depositBatch(amount int64, oids ...store.OID) *engine.Batch {
	b := engine.NewBatch("account", len(oids))
	for _, oid := range oids {
		b.Call(oid, "deposit", value.Int(amount))
	}
	return b
}

// balanceOf reads oid's committed balance inside its owning loop.
func balanceOf(t *testing.T, db *DB, oid store.OID) int64 {
	t.Helper()
	var v value.Value
	if err := db.Transact(db.PartitionOf(oid), func(tx *engine.Tx) (err error) {
		v, err = tx.Get(oid, "balance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return v.AsInt()
}

// TestBatchIsVisibleToLaterJobsAndBusMessages: once PostBatch returns,
// every piece has committed in its partition, so a routed job and a bus
// message sent after it — on the same partition and on the other — see
// the batch's writes, and the message runs after the batch's commit.
func TestBatchIsVisibleToLaterJobsAndBusMessages(t *testing.T) {
	db := openBank(t, 2, "", nil, engine.Options{})
	defer db.Close()
	oids := newAccounts(t, db)

	if err := db.PostBatch(depositBatch(40, oids...)); err != nil {
		t.Fatal(err)
	}
	seen := make([]int64, len(oids))
	for i, oid := range oids {
		db.Relay(ExternalSource, oid, func(e *engine.Engine) error {
			return e.Transact(func(tx *engine.Tx) error {
				v, err := tx.Get(oid, "balance")
				seen[i] = v.AsInt()
				return err
			})
		})
	}
	db.Drain()
	for i, oid := range oids {
		if seen[i] != 1040 {
			t.Errorf("a bus message after the batch saw object %d at %d, want 1040", oid, seen[i])
		}
		if got := balanceOf(t, db, oid); got != 1040 {
			t.Errorf("a job after the batch saw object %d at %d, want 1040", oid, got)
		}
	}
	if errs := db.RelayErrors(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
}

// TestBatchIsDurableAcrossCloseAndReopen: a batch posted just before
// Close is in each partition's log, so a reopen recovers it.
func TestBatchIsDurableAcrossCloseAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := openBank(t, 2, dir, nil, engine.Options{})
	oids := newAccounts(t, db)
	if err := db.PostBatch(depositBatch(9, oids...)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openBank(t, 2, dir, nil, engine.Options{})
	defer re.Close()
	for _, oid := range oids {
		if got := balanceOf(t, re, oid); got != 1009 {
			t.Fatalf("object %d: balance %d after close and reopen, want 1009", oid, got)
		}
	}
}
