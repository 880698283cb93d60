package engine

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"ode/internal/store"
	"ode/internal/value"
)

// openAccounts opens a durable engine on dir with the account class.
func openAccounts(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cls, impl := accountClass(&recorder{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// balanceAfterReopen reopens dir and returns each object's balance.
func balanceAfterReopen(t *testing.T, dir string, oids []store.OID) []int64 {
	t.Helper()
	e := openAccounts(t, dir)
	defer e.Close()
	out := make([]int64, len(oids))
	for i, oid := range oids {
		r, err := e.Store().Get(oid)
		if err != nil {
			t.Fatalf("object %d after reopen: %v", oid, err)
		}
		out[i] = field(r, "balance").AsInt()
	}
	return out
}

// TestCheckpointSkipsOpenTransaction: a checkpoint writes the committed
// state, never an open transaction's writes — the object reopens with
// the balance its commit left, not the one a transaction that later
// aborted had written when the checkpoint ran.
func TestCheckpointSkipsOpenTransaction(t *testing.T) {
	dir := t.TempDir()
	e := openAccounts(t, dir)
	var oid store.OID
	if err := e.Transact(func(tx *Tx) error {
		var err error
		oid, err = tx.NewObject("account", map[string]value.Value{"balance": value.Int(5)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.Set(oid, "balance", value.Int(999)); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := balanceAfterReopen(t, dir, []store.OID{oid}); got[0] != 5 {
		t.Fatalf("balance after reopen = %d, want the committed 5", got[0])
	}
}

// TestCheckpointRacesCommitters runs committers against a loop of
// checkpoints (under -race in CI). Each committer creates objects,
// commits a few balances to each and ends every object with a
// transaction that writes -1 and aborts, yielding in between so that
// checkpoints land inside it. After a reopen every object holds its
// last acknowledged balance: no acknowledged commit is lost to a
// truncated log and no aborted write reached a snapshot.
func TestCheckpointRacesCommitters(t *testing.T) {
	const committers, objects, rounds = 4, 40, 3
	dir := t.TempDir()
	e := openAccounts(t, dir)
	stop := make(chan struct{})
	var ckpt sync.WaitGroup
	ckpt.Add(1)
	checkpoints := 0
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			checkpoints++
		}
	}()
	oids := make([][]store.OID, committers)
	acked := make([][]int64, committers)
	var wg sync.WaitGroup
	for c := range oids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < objects; i++ {
				var oid store.OID
				if err := e.Transact(func(tx *Tx) error {
					var err error
					oid, err = tx.NewObject("account", nil)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
				last := int64(0)
				for r := int64(1); r <= rounds; r++ {
					if err := e.Transact(func(tx *Tx) error { return tx.Set(oid, "balance", value.Int(r)) }); err != nil {
						t.Error(err)
						return
					}
					last = r
				}
				tx := e.Begin()
				if err := tx.Set(oid, "balance", value.Int(-1)); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
				if err := tx.Abort(); err != nil {
					t.Error(err)
					return
				}
				oids[c], acked[c] = append(oids[c], oid), append(acked[c], last)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	ckpt.Wait()
	if t.Failed() {
		return
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d checkpoints ran", checkpoints)
	all, want := slices.Concat(oids...), slices.Concat(acked...)
	for i, got := range balanceAfterReopen(t, dir, all) {
		if got != want[i] {
			t.Errorf("object %d reopened with balance %d, want the acknowledged %d", all[i], got, want[i])
		}
	}
}
