package engine

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ode/internal/fault"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestExplainImageRace reads the shared committed images — through
// Engine.Explain and Store.GetCommitted — from several goroutines while
// a producer commits and aborts against the same hot objects, under
// -race. Successive images of an object share their unchanged parts, so
// a reader walks memory that several generations point at; nothing a
// transaction does, committed or rolled back, may write to it. Each
// committed deposit is +10, each aborted one +1, so a reader must only
// ever see balances ≡ 0 (mod 10), never going backwards.
func TestExplainImageRace(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Pair", Perpetual: true, Event: "relative(after deposit, after withdraw)"},
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after deposit(n) && n > 1000000"})
	e := newEngine(t, Options{})
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	const objects, rounds, readers = 4, 400, 4
	var oids [objects]store.OID
	err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			oid, err := tx.NewObject("account", map[string]value.Value{"balance": value.Int(0)})
			if err != nil {
				return err
			}
			oids[i] = oid
			for _, trig := range []string{"Pair", "Big"} {
				if err := tx.Activate(oid, trig); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [objects]int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, oid := range oids {
					img, ok := e.Store().GetCommitted(oid)
					if !ok {
						t.Error("committed object vanished from the view")
						return
					}
					bal := field(img, "balance").AsInt()
					if bal%10 != 0 || bal < last[i] {
						t.Errorf("object %d: balance %d after %d", oid, bal, last[i])
						return
					}
					last[i] = bal
					for _, a := range img.Trigs {
						_, _, _ = a.Active, a.State, len(a.Params())
					}
					if _, err := e.Explain("Pair", oid); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < rounds; round++ {
		oid := oids[round%objects]
		commit := round%3 != 0
		err := e.Transact(func(tx *Tx) error {
			amount := int64(1)
			if commit {
				amount = 10
			}
			if _, err := tx.Call(oid, "deposit", value.Int(amount)); err != nil {
				return err
			}
			if round%2 == 0 { // moves Pair back: some commits change one activation, some two
				if _, err := tx.Call(oid, "withdraw", value.Int(0)); err != nil {
					return err
				}
			}
			if !commit {
				return errInject
			}
			return nil
		})
		if err != nil && err != errInject {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// heapOf returns a deep copy of every object's exported content.
func heapOf(st *store.Store) map[store.OID][2]any {
	out := map[store.OID][2]any{}
	for _, oid := range st.OIDs() {
		r, _ := st.Snapshot(oid)
		trigs := map[string]store.TrigState{}
		for slot, a := range r.Trigs {
			if !a.IsZero() {
				trigs[r.TrigName(slot)] = a
			}
		}
		out[oid] = [2]any{r.Fields, trigs}
	}
	return out
}

// TestDurableCommitLogsOnlyChanges: a user transaction is exactly one
// WAL batch — on a class whose triggers observe after tcommit too, since
// its outcome phase rides the transaction's frame and fsync (it used to
// be a second transaction with its own) — a read-only transaction is
// none, and the log so written recovers the heap — also when a crash
// tears the last batch off.
func TestDurableCommitLogsOnlyChanges(t *testing.T) {
	t.Run("observes tcommit", func(t *testing.T) {
		dir, reg := t.TempDir(), fault.New()
		cls, impl := accountClass(&recorder{},
			schema.Trigger{Name: "TxFirst", Perpetual: true, Event: "fa(after tbegin, after deposit, after tcommit)"})
		e := newEngine(t, Options{Dir: dir, Faults: reg})
		oid := setup(t, e, cls, impl, "TxFirst")
		first, _, _ := e.TriggerState(oid, "TxFirst")
		size, syncs := walSizeOf(t, dir), reg.Consults(fault.WALSync)
		if err := e.Transact(func(tx *Tx) error {
			_, err := tx.Call(oid, "deposit", value.Int(5))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := reg.Consults(fault.WALSync) - syncs; got != 1 {
			t.Fatalf("one transaction made %d fsyncs, want 1", got)
		}
		if walSizeOf(t, dir) == size {
			t.Fatal("the transaction logged nothing")
		}
		if st, _, _ := e.TriggerState(oid, "TxFirst"); st != first {
			t.Fatalf("TxFirst in state %d after the commit, want %d: its after-tcommit step is missing", st, first)
		}
		applied := e.Store().Recovery().TxApplied
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if got := e2.Store().Recovery().TxApplied - applied; got != 2 {
			t.Fatalf("the log holds %d frames, want 2: setup's and the deposit's, each with its outcome", got)
		}
	})

	dir := t.TempDir()
	open := func() *Engine {
		cls, impl := accountClass(&recorder{},
			schema.Trigger{Name: "Pair", Perpetual: true, Event: "relative(after deposit, after withdraw)"})
		e, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RegisterClass(cls, impl, nil); err != nil {
			t.Fatal(err)
		}
		return e
	}
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	e := open()
	var a, b store.OID
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Transact(func(tx *Tx) (err error) { // batch 1
		if a, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		if b, err = tx.NewObject("account", nil); err != nil {
			return err
		}
		return tx.Activate(a, "Pair")
	}))
	must(e.Transact(func(tx *Tx) error { // batch 2: a changes, b is only read
		if _, err := tx.Get(b, "balance"); err != nil {
			return err
		}
		_, err := tx.Call(a, "deposit", value.Int(5))
		return err
	}))
	beforeLast, sizeBeforeLast := heapOf(e.Store()), walSize()
	must(e.Transact(func(tx *Tx) error { // batch 3
		_, err := tx.Call(b, "deposit", value.Int(7))
		return err
	}))
	size := walSize()
	must(e.Transact(func(tx *Tx) error { // read-only: no batch
		_, err := tx.Call(a, "getBalance")
		return err
	}))
	if got := walSize(); got != size {
		t.Fatalf("read-only transaction grew the WAL %d → %d", size, got)
	}
	want := heapOf(e.Store())
	must(e.Close())

	e2 := open()
	if got := e2.Store().Recovery().TxApplied; got != 3 {
		t.Fatalf("log holds %d committed batches, want 3 (one per changing transaction)", got)
	}
	if got := heapOf(e2.Store()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered heap\n got %v\nwant %v", got, want)
	}
	must(e2.Close())

	// Crash: the last batch is torn; recovery lands on the state before it.
	must(os.Truncate(filepath.Join(dir, "wal.log"), size-3))
	e3 := open()
	defer e3.Close()
	rec := e3.Store().Recovery()
	if !rec.TornTail || rec.TxApplied != 2 {
		t.Fatalf("after tearing the last batch: %+v", rec)
	}
	if size-3 <= sizeBeforeLast {
		t.Fatalf("tear at %d is not inside the last batch (starts at %d)", size-3, sizeBeforeLast)
	}
	if got := heapOf(e3.Store()); !reflect.DeepEqual(got, beforeLast) {
		t.Fatalf("heap after torn recovery\n got %v\nwant %v", got, beforeLast)
	}
}

// walSizeOf returns the size of dir's WAL file.
func walSizeOf(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestNaNFieldIsNotPerpetuallyDirty: commit decides what changed by
// comparing content, and a float NaN is not == to itself as a float. A
// read-only transaction on an object holding one must log no record and
// publish no image.
func TestNaNFieldIsNotPerpetuallyDirty(t *testing.T) {
	dir := t.TempDir()
	cls, impl := accountClass(&recorder{})
	cls.Fields = append(cls.Fields, schema.Field{Name: "rate", Kind: value.KindFloat})
	e := newEngine(t, Options{Dir: dir})
	defer e.Close()
	if _, err := e.RegisterClass(cls, impl, nil); err != nil {
		t.Fatal(err)
	}
	var a store.OID
	if err := e.Transact(func(tx *Tx) (err error) {
		a, err = tx.NewObject("account", map[string]value.Value{"rate": value.Float(math.NaN())})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size, epoch := walSize(), e.Store().Epoch()
	img, _ := e.Store().GetCommitted(a)
	if err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(a, "getBalance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if again, _ := e.Store().GetCommitted(a); again != img || e.Store().Epoch() != epoch || walSize() != size {
		t.Fatalf("a read-only transaction on an object holding a NaN: new image %v, epoch %d → %d, WAL %d → %d bytes",
			again != img, epoch, e.Store().Epoch(), size, walSize())
	}
}
