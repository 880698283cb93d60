package txn

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"ode/internal/fault"
	"ode/internal/store"
	"ode/internal/value"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	s, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(s)
}

// field reads a field of a record the caller may read (an image, or a
// live record whose lock it holds); null if the object has none so named.
func field(r *store.Record, name string) value.Value {
	v, _ := r.Field(name)
	return v
}

func TestCommitKeepsEffects(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	rec, err := tx.Create("acct", map[string]value.Value{"balance": value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetField("balance", value.Int(20))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Fatalf("state %v", tx.State())
	}
	got, _ := m.Store().Get(rec.OID)
	if !field(got, "balance").Equal(value.Int(20)) {
		t.Fatalf("balance %v", field(got, "balance"))
	}
	// Locks released: another transaction can access it.
	tx2 := m.Begin()
	if _, _, err := tx2.Access(rec.OID); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
}

func TestAbortUndoesUpdatesCreatesDeletes(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(100)})
	b, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(200)})
	setup.Commit()

	tx := m.Begin()
	ra, _, _ := tx.Access(a.OID)
	ra.SetField("balance", value.Int(0))
	ra.Trigger("t").State = 5
	if err := tx.Delete(b.OID); err != nil {
		t.Fatal(err)
	}
	c, _ := tx.Create("acct", nil)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Aborted {
		t.Fatalf("state %v", tx.State())
	}

	ga, _ := m.Store().Get(a.OID)
	if !field(ga, "balance").Equal(value.Int(100)) || !ga.Trigger("t").IsZero() {
		t.Fatalf("update not undone: %+v", ga)
	}
	if !m.Store().Exists(b.OID) {
		t.Fatal("delete not undone")
	}
	if m.Store().Exists(c.OID) {
		t.Fatal("create not undone")
	}
}

func TestFinishedTransactionRejectsOperations(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	a, _ := tx.Create("x", nil)
	tx.Commit()
	if _, _, err := tx.Access(a.OID); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Access after commit: %v", err)
	}
	if _, err := tx.Create("x", nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Create after commit: %v", err)
	}
	if err := tx.Delete(a.OID); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Delete after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestFirstAccessReported(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("x", nil)
	setup.Commit()

	tx := m.Begin()
	_, first, _ := tx.Access(a.OID)
	if !first {
		t.Fatal("first access not reported")
	}
	_, again, _ := tx.Access(a.OID)
	if again {
		t.Fatal("second access reported as first")
	}
	got := tx.Accessed()
	if len(got) != 1 || got[0] != a.OID {
		t.Fatalf("Accessed = %v", got)
	}
	tx.Commit()
}

// TestAccessedAcrossInlineCrossover: a transaction answers "accessed
// already?" by scanning its inline list and switches to a map when the
// list outgrows it. On both sides of the switch, in lock-manager and
// single-writer mode, committing and aborting: Accessed() is the first-
// access order, first is reported exactly once per object (also for a
// created one and one peeked before its first access), every lock taken
// — accessed or only peeked — is released, and the lock manager is empty
// afterwards.
func TestAccessedAcrossInlineCrossover(t *testing.T) {
	for _, single := range []bool{false, true} {
		for _, n := range []int{3, 4, 5, 300} {
			for _, commit := range []bool{true, false} {
				m := newManager(t)
				m.SetSingleWriter(single)
				oids := make([]store.OID, n)
				for i := range oids {
					oids[i] = m.Store().Create("acct", map[string]value.Value{"balance": value.Int(0)}).OID
				}
				peekedOnly := m.Store().Create("acct", nil).OID

				tx := m.Begin()
				if _, err := tx.Peek(oids[0]); err != nil { // locked before its first access
					t.Fatal(err)
				}
				if _, err := tx.Peek(peekedOnly); err != nil {
					t.Fatal(err)
				}
				created, err := tx.Create("acct", nil)
				if err != nil {
					t.Fatal(err)
				}
				want := []store.OID{created.OID}
				for pass := 0; pass < 2; pass++ {
					// Descending, so the order is not the OIDs' own.
					for i := n - 1; i >= 0; i-- {
						_, first, err := tx.Access(oids[i])
						if err != nil {
							t.Fatal(err)
						}
						if first != (pass == 0) {
							t.Fatalf("single=%v n=%d pass %d: Access(%d) first = %v", single, n, pass, oids[i], first)
						}
						if pass == 0 {
							want = append(want, oids[i])
						}
					}
				}
				if _, first, err := tx.Access(created.OID); err != nil || first {
					t.Fatalf("single=%v n=%d: created object: first = %v, err = %v", single, n, first, err)
				}
				if got := tx.Accessed(); !slices.Equal(got, want) {
					t.Fatalf("single=%v n=%d: Accessed() = %v, want %v", single, n, got, want)
				}
				if (tx.seen != nil) != (len(want) > len(tx.accessedBuf)) {
					t.Fatalf("single=%v n=%d: seen map present = %v with %d accessed", single, n, tx.seen != nil, len(want))
				}
				locked := append([]store.OID{peekedOnly}, want...)
				if !single {
					var held []store.OID
					for _, l := range tx.held {
						held = append(held, l.oid)
					}
					if !sameSet(held, locked) {
						t.Fatalf("n=%d: held list %v, want the set %v", n, held, locked)
					}
				}
				if commit {
					err = tx.Commit()
				} else {
					err = tx.Abort()
				}
				if err != nil {
					t.Fatal(err)
				}
				if !single {
					for _, oid := range locked {
						if tx.Holds(oid) {
							t.Fatalf("n=%d commit=%v: lock on %d survived the transaction", n, commit, oid)
						}
					}
				}
				if held, waiting := heldOf(m, locked...), m.locks.waiters(); held != 0 || waiting != 0 {
					t.Fatalf("single=%v n=%d: lock manager not quiescent: held=%d waiting=%d", single, n, held, waiting)
				}
				if edges := m.locks.edges(); edges != 0 {
					t.Fatalf("single=%v n=%d: waits-for graph not drained: edges=%d", single, n, edges)
				}
			}
		}
	}
}

// TestSmallTxAllocBudget: a transaction that accesses up to four
// objects and changes none of them allocates one object, itself — the
// accessed, touched and held-lock lists sit in its inline buffers, there
// is no seen map, and an unchanged object gets no image — with or
// without the lock manager.
func TestSmallTxAllocBudget(t *testing.T) {
	for _, single := range []bool{false, true} {
		m := newManager(t)
		m.SetSingleWriter(single)
		var oids [4]store.OID
		setup := m.Begin()
		for i := range oids {
			rec, err := setup.Create("acct", map[string]value.Value{"balance": value.Int(0)})
			if err != nil {
				t.Fatal(err)
			}
			oids[i] = rec.OID
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			tx := m.Begin()
			for _, oid := range oids {
				if _, _, err := tx.Access(oid); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 1 {
			t.Errorf("single-writer %v: a 4-object read-only transaction allocates %.1f objects; want 1 (the Tx)", single, avg)
		}
	}
}

// sameSet reports whether a and b hold the same OIDs, each once.
func sameSet(a, b []store.OID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func TestLockBlocksConflictingTransaction(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("x", map[string]value.Value{"v": value.Int(1)})
	setup.Commit()

	tx1 := m.Begin()
	tx1.Access(a.OID)
	if !tx1.Holds(a.OID) {
		t.Fatal("tx1 should hold the lock")
	}

	acquired := make(chan struct{})
	go func() {
		tx2 := m.Begin()
		tx2.Access(a.OID) // blocks until tx1 finishes
		close(acquired)
		tx2.Commit()
	}()

	select {
	case <-acquired:
		t.Fatal("tx2 acquired a held lock")
	case <-time.After(30 * time.Millisecond):
	}
	tx1.Commit()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("tx2 never acquired the lock after release")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("x", nil)
	b, _ := setup.Create("x", nil)
	setup.Commit()

	tx1 := m.Begin()
	tx2 := m.Begin()
	if _, _, err := tx1.Access(a.OID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx2.Access(b.OID); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		_, _, err := tx1.Access(b.OID) // blocks on tx2
		errs <- err
		if err != nil {
			tx1.Abort()
		} else {
			tx1.Commit()
		}
	}()
	time.Sleep(20 * time.Millisecond) // let tx1 block
	_, _, err := tx2.Access(a.OID)    // would close the cycle
	errs <- err
	if err != nil {
		tx2.Abort()
	} else {
		tx2.Commit()
	}
	wg.Wait()

	var deadlocks, oks int
	for i := 0; i < 2; i++ {
		switch e := <-errs; {
		case errors.Is(e, ErrDeadlock):
			deadlocks++
		case e == nil:
			oks++
		default:
			t.Fatalf("unexpected error %v", e)
		}
	}
	if deadlocks != 1 || oks != 1 {
		t.Fatalf("deadlocks=%d oks=%d, want exactly one of each", deadlocks, oks)
	}
}

func TestReentrantLock(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	a, _ := tx.Create("x", nil)
	for i := 0; i < 3; i++ {
		if _, _, err := tx.Access(a.OID); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
}

func TestCommitDependencyCommitted(t *testing.T) {
	m := newManager(t)
	t1 := m.Begin()
	a, _ := t1.Create("x", nil)
	t2 := m.Begin()
	t2.DependOn(t1)

	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()
	select {
	case <-done:
		t.Fatal("dependent committed before dependency")
	case <-time.After(30 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dependent commit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dependent never committed")
	}
	_ = a
}

func TestCommitDependencyAborted(t *testing.T) {
	m := newManager(t)
	t1 := m.Begin()
	t2 := m.Begin()
	rec, _ := t2.Create("x", nil)
	t2.DependOn(t1)

	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()
	time.Sleep(20 * time.Millisecond)
	t1.Abort()

	select {
	case err := <-done:
		if !errors.Is(err, ErrDependencyAborted) {
			t.Fatalf("dependent commit error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dependent never finished")
	}
	if t2.State() != Aborted {
		t.Fatalf("dependent state %v, want aborted", t2.State())
	}
	if m.Store().Exists(rec.OID) {
		t.Fatal("aborted dependent's create survived")
	}
}

func TestDependOnSelfAndNilIgnored(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	tx.DependOn(nil)
	tx.DependOn(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemTransactionFlag(t *testing.T) {
	m := newManager(t)
	if m.Begin().System() {
		t.Fatal("ordinary transaction flagged system")
	}
	st := m.BeginSystem()
	if !st.System() {
		t.Fatal("system transaction not flagged")
	}
	st.Commit()
}

func TestConcurrentTransfersSerialize(t *testing.T) {
	// Classic bank transfer stress: concurrent debits/credits between
	// two accounts; locking must keep the total invariant.
	m := newManager(t)
	setup := m.Begin()
	a, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(1000)})
	b, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(1000)})
	setup.Commit()

	const workers = 8
	const transfers = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				for {
					tx := m.Begin()
					// Alternate lock order to exercise deadlock
					// handling; retry on deadlock.
					first, second := a.OID, b.OID
					if (w+i)%2 == 1 {
						first, second = second, first
					}
					r1, _, err := tx.Access(first)
					if err != nil {
						tx.Abort()
						continue
					}
					r2, _, err := tx.Access(second)
					if err != nil {
						tx.Abort()
						continue
					}
					r1.SetField("balance", value.Int(field(r1, "balance").AsInt()-1))
					r2.SetField("balance", value.Int(field(r2, "balance").AsInt()+1))
					if err := tx.Commit(); err == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	ra, _ := m.Store().Get(a.OID)
	rb, _ := m.Store().Get(b.OID)
	total := field(ra, "balance").AsInt() + field(rb, "balance").AsInt()
	if total != 2000 {
		t.Fatalf("total %d, want 2000 (lost update)", total)
	}
}

func TestStateStrings(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Fatal("state strings")
	}
}

// TestAbortOutcomeRollsBackToTheSavepoint drives an outcome phase by
// hand: steps before its first action (Mark), then — sealed — writes,
// a deletion and a creation. Rollback in the phase must take back
// exactly the phase and keep what a kept slot saw of it, and Commit then
// commits the transaction's own part, creation included.
func TestAbortOutcomeRollsBackToTheSavepoint(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		m := newManager(t)
		setup := m.Begin()
		a, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(100)})
		b, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(200)})
		a.Trigger("whole") // both slots interned before either pointer is taken
		a.Trigger("com").Active, a.Trigger("whole").Active = true, true
		setup.Commit()
		whole, _ := m.Store().Layout("acct").Slot("whole")
		m.Store().Layout("acct").Keep(whole)
		com, _ := m.Store().Layout("acct").Slot("com")

		tx := m.Begin()
		own := tx.ID()
		ra, _, _ := tx.Access(a.OID)
		ra.SetField("balance", value.Int(150))
		c, _ := tx.Create("acct", nil)
		tx.AddFiring(store.FiringRecord{OID: a.OID, Trigger: "user"})
		if err := tx.BeginOutcome(); err != nil {
			t.Fatal(err)
		}
		if tx.ID() == own || !tx.System() {
			t.Fatalf("outcome phase has id %d (own %d), system %v", tx.ID(), own, tx.System())
		}
		for _, slot := range []int{com, whole} {
			tx.Mark(ra, slot)
			ra.Trigs[slot].State = 7
		}
		if sealed {
			tx.Seal()
			ra.SetField("balance", value.Int(-1))
			ra.Trigs[com].Active = false
			if err := tx.Delete(b.OID); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Create("acct", nil); err != nil {
				t.Fatal(err)
			}
			tx.AddFiring(store.FiringRecord{OID: a.OID, Trigger: "outcome", TxID: tx.ID()})
		}
		tx.Rollback()
		if tx.State() != Active || tx.ID() != own || tx.System() {
			t.Fatalf("sealed %v: after Rollback state %v, id %d (own %d), system %v", sealed, tx.State(), tx.ID(), own, tx.System())
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if tx.State() != Committed || tx.ID() != own || tx.System() {
			t.Fatalf("sealed %v: after Commit state %v, id %d (own %d), system %v", sealed, tx.State(), tx.ID(), own, tx.System())
		}
		img, _ := m.Store().GetCommitted(a.OID)
		if bal := field(img, "balance"); !bal.Equal(value.Int(150)) {
			t.Errorf("sealed %v: balance %v, want the transaction's own 150", sealed, bal)
		}
		if got := img.Trig(com); got.State != 0 || !got.Active {
			t.Errorf("sealed %v: committed-view slot %+v, want the savepoint's (state 0, active)", sealed, got)
		}
		if got := img.Trig(whole); got.State != 7 {
			t.Errorf("sealed %v: kept slot state %d, want the outcome's 7", sealed, got.State)
		}
		if _, ok := m.Store().GetCommitted(b.OID); !ok {
			t.Errorf("sealed %v: the outcome's deletion survived", sealed)
		}
		if _, ok := m.Store().GetCommitted(c.OID); !ok {
			t.Errorf("sealed %v: the transaction's own creation was lost", sealed)
		}
		if n := m.Store().Count(); n != 3 {
			t.Errorf("sealed %v: %d objects, want a, b and c", sealed, n)
		}
		if fs := tx.Firings(); len(fs) != 1 || fs[0].Trigger != "user" {
			t.Errorf("sealed %v: firings %+v, want only the transaction's own", sealed, fs)
		}
	}
}

// rollbackSetup commits objects a and b, a with an active kept slot
// "whole" the class layout keeps, and returns both and the slot.
func rollbackSetup(t *testing.T, m *Manager) (a, b *store.Record, whole int) {
	t.Helper()
	setup := m.Begin()
	a, _ = setup.Create("acct", map[string]value.Value{"balance": value.Int(100)})
	b, _ = setup.Create("acct", map[string]value.Value{"balance": value.Int(200)})
	a.Trigger("whole").Active = true
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	layout := m.Store().Layout("acct")
	whole, _ = layout.Slot("whole")
	layout.Keep(whole)
	return a, b, whole
}

// TestRollbackToTheBegin: Rollback outside an outcome phase takes the
// transaction back to its begin and leaves it active under its locks —
// its creation removed, its deletion resurrected, its write undone, its
// firings dropped, a kept slot keeping what it saw. An outcome phase runs
// from there, and Commit logs what the rollback kept with what the phase
// did in one frame and ends the transaction Aborted.
func TestRollbackToTheBegin(t *testing.T) {
	m := newManager(t)
	a, b, whole := rollbackSetup(t, m)
	st := m.Store()

	tx := m.Begin()
	ra, _, _ := tx.Access(a.OID)
	ra.SetField("balance", value.Int(150))
	ra.Trigs[whole].State = 7
	c, _ := tx.Create("acct", nil)
	if err := tx.Delete(b.OID); err != nil {
		t.Fatal(err)
	}
	tx.AddFiring(store.FiringRecord{OID: a.OID, Trigger: "user"})
	epoch := st.Epoch()
	tx.Rollback()
	if tx.State() != Active || !tx.Holds(a.OID) || !tx.Holds(b.OID) {
		t.Fatalf("after Rollback: state %v, holds a %v, b %v; want active under both locks", tx.State(), tx.Holds(a.OID), tx.Holds(b.OID))
	}
	if st.Exists(c.OID) || !st.Exists(b.OID) {
		t.Fatalf("after Rollback: creation exists %v, deletion exists %v", st.Exists(c.OID), st.Exists(b.OID))
	}
	if got := tx.Accessed(); !slices.Equal(got, []store.OID{a.OID, b.OID}) {
		t.Fatalf("Accessed() = %v, want [%d %d]: the creation leaves, the rest stays in place", got, a.OID, b.OID)
	}
	if len(tx.Firings()) != 0 {
		t.Fatalf("firings %+v survived the rollback", tx.Firings())
	}
	if st.Epoch() != epoch {
		t.Fatal("the rollback published: only the Commit may")
	}

	if err := tx.BeginOutcome(); err != nil {
		t.Fatal(err)
	}
	rb, first, err := tx.Access(b.OID)
	if err != nil || first {
		t.Fatalf("outcome's Access(b): first %v, err %v; want a repeat access", first, err)
	}
	rb.SetField("owner", value.Str("outcome"))
	tx.AddFiring(store.FiringRecord{OID: b.OID, Trigger: "outcome", TxID: tx.ID()})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Aborted || tx.Holds(a.OID) || tx.Holds(b.OID) {
		t.Fatalf("after Commit: state %v, holds a %v, b %v; want aborted, locks released", tx.State(), tx.Holds(a.OID), tx.Holds(b.OID))
	}
	if st.Epoch() != epoch+1 {
		t.Fatalf("epoch %d → %d: want one publication for the carry and the outcome", epoch, st.Epoch())
	}
	imgA, _ := st.GetCommitted(a.OID)
	if bal := field(imgA, "balance"); !bal.Equal(value.Int(100)) || imgA.Trig(whole).State != 7 {
		t.Errorf("a: balance %v, kept state %d; want 100 and 7", bal, imgA.Trig(whole).State)
	}
	imgB, _ := st.GetCommitted(b.OID)
	if o := field(imgB, "owner"); !o.Equal(value.Str("outcome")) {
		t.Errorf("b: owner %v, want the outcome's write", o)
	}
	if fs := tx.Firings(); len(fs) != 1 || fs[0].Trigger != "outcome" {
		t.Errorf("firings %+v, want only the outcome's", fs)
	}
}

// TestFailedFrameKeepsAnOutcomeTransactionOpen: a transaction that has
// begun an outcome phase and cannot log its frame is rolled back to its
// begin and left open under its locks, so its after tabort can follow;
// the frame of that abort failing too falls back to the plain
// before-images and ends it Aborted. Without an outcome phase a failed
// Commit ends the transaction Aborted at once.
func TestFailedFrameKeepsAnOutcomeTransactionOpen(t *testing.T) {
	for _, phased := range []bool{false, true} {
		reg := fault.New()
		s, err := store.OpenWith(t.TempDir(), store.Options{Faults: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		m := NewManager(s)
		a, _, whole := rollbackSetup(t, m)

		tx := m.Begin()
		ra, _, _ := tx.Access(a.OID)
		ra.SetField("balance", value.Int(150))
		ra.Trigs[whole].State = 7
		if phased {
			if err := tx.BeginOutcome(); err != nil {
				t.Fatal(err)
			}
		}
		reg.FailStop() // the first fault stops every later write too
		reg.ArmNext(fault.WALWrite)
		if err := tx.Commit(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("phased %v: Commit = %v, want the injected fault", phased, err)
		}
		if phased {
			live, _ := s.Get(a.OID)
			if tx.State() != Active || !tx.Holds(a.OID) || live.Trig(whole).State != 7 || !field(live, "balance").Equal(value.Int(100)) {
				t.Fatalf("after the failed frame: state %v, holds %v, record %v; want open, rolled back, kept slot kept",
					tx.State(), tx.Holds(a.OID), live)
			}
			if err := tx.Commit(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("the abort's Commit = %v, want the injected fault", err)
			}
		}
		live, _ := s.Get(a.OID)
		if tx.State() != Aborted || tx.Holds(a.OID) || live.Trig(whole).State != 0 || !field(live, "balance").Equal(value.Int(100)) {
			t.Fatalf("phased %v: state %v, holds %v, record %v; want aborted on the plain before-image", phased, tx.State(), tx.Holds(a.OID), live)
		}
	}
}

// TestAccessAgainAnswersFromTheLatestEntry: a repeat access to the latest
// first-accessed object is answered from the transaction's own entry, and
// that answer is the store's: after Delete it fails, after Commit it is
// ErrNotActive, and after an outcome phase's Rollback it is the live
// record the rollback restored — in lock-manager and single-writer mode.
func TestAccessAgainAnswersFromTheLatestEntry(t *testing.T) {
	for _, single := range []bool{false, true} {
		m := newManager(t)
		m.SetSingleWriter(single)
		setup := m.Begin()
		a, _ := setup.Create("acct", map[string]value.Value{"balance": value.Int(100)})
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}

		tx := m.Begin()
		if _, _, err := tx.Access(a.OID); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(a.OID); err != nil {
			t.Fatal(err)
		}
		if rec, _, err := tx.Access(a.OID); err == nil {
			t.Fatalf("single %v: repeat access after Delete returned %+v", single, rec)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}

		tx = m.Begin()
		ra, _, err := tx.Access(a.OID)
		if err != nil {
			t.Fatal(err)
		}
		ra.SetField("balance", value.Int(150))
		if err := tx.BeginOutcome(); err != nil {
			t.Fatal(err)
		}
		tx.Seal()
		ra.SetField("balance", value.Int(-1))
		if err := tx.Delete(a.OID); err != nil {
			t.Fatal(err)
		}
		tx.Rollback()
		rec, first, err := tx.Access(a.OID)
		live, _ := m.Store().Get(a.OID)
		if err != nil || first || rec != live || rec == ra {
			t.Fatalf("single %v: repeat access after Rollback = %p, first %v, %v; want the restored live %p, not %p", single, rec, first, err, live, ra)
		}
		if bal := field(rec, "balance"); !bal.Equal(value.Int(150)) {
			t.Fatalf("single %v: restored balance %v, want the savepoint's 150", single, bal)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tx.Access(a.OID); !errors.Is(err, ErrNotActive) {
			t.Fatalf("single %v: repeat access after Commit: %v", single, err)
		}
	}
}

// TestRollbackPastTheInlineBuffer: a transaction that creates more
// objects than accessedBuf holds, interleaved, in no OID order, with
// first accesses to committed objects and to objects a bare Store.Create
// made, rolls back every object it created out of the store and restores
// every other one — to an outcome phase's savepoint, then to its begin.
func TestRollbackPastTheInlineBuffer(t *testing.T) {
	for _, single := range []bool{false, true} {
		m := newManager(t)
		m.SetSingleWriter(single)
		st := m.Store()
		balance := func(oid store.OID) value.Value {
			rec, err := st.Get(oid)
			if err != nil {
				return value.Null()
			}
			return field(rec, "balance")
		}
		setup := m.Begin()
		var committed [6]store.OID
		for i := range committed {
			rec, err := setup.Create("acct", map[string]value.Value{"balance": value.Int(int64(100 + i))})
			if err != nil {
				t.Fatal(err)
			}
			committed[i] = rec.OID
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		bare := [2]store.OID{st.Create("acct", map[string]value.Value{"balance": value.Int(50)}).OID,
			st.Create("acct", map[string]value.Value{"balance": value.Int(51)}).OID}

		tx := m.Begin()
		var created []store.OID
		create := func() {
			rec, err := tx.Create("acct", nil)
			if err != nil {
				t.Fatal(err)
			}
			rec.SetField("balance", value.Int(-1))
			created = append(created, rec.OID)
		}
		access := func(oid store.OID) {
			rec, _, err := tx.Access(oid)
			if err != nil {
				t.Fatal(err)
			}
			rec.SetField("balance", value.Int(-2))
		}
		create()
		access(committed[3])
		create()
		access(bare[1])
		create()
		create()
		access(committed[0])
		create()
		access(bare[0])
		access(committed[2])
		create()
		access(committed[3]) // again
		before := len(created)
		if err := tx.BeginOutcome(); err != nil {
			t.Fatal(err)
		}
		tx.Seal() // the phase's writes below are an action's
		access(committed[5])
		create()
		access(created[1])
		create()
		access(committed[4])
		create()
		tx.Rollback()
		for i, oid := range created {
			if kept := i < before; st.Exists(oid) != kept {
				t.Fatalf("single=%v: created object %d (#%d, %d before the phase) exists=%v after the phase's rollback", single, oid, i, before, !kept)
			}
		}
		for _, c := range []struct {
			oid  store.OID
			want int64
		}{{committed[3], -2}, {committed[0], -2}, {committed[5], 105}, {committed[4], 104}, {bare[0], -2}, {created[1], -1}} {
			if got := balance(c.oid); !got.Equal(value.Int(c.want)) {
				t.Fatalf("single=%v: object %d balance %v after the phase's rollback, want %d", single, c.oid, got, c.want)
			}
		}
		if n := len(tx.Accessed()); n != before+5+2 {
			t.Fatalf("single=%v: %d objects accessed after the phase's rollback, want %d", single, n, before+5+2)
		}

		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		for _, oid := range created {
			if st.Exists(oid) {
				t.Fatalf("single=%v: created object %d survived the abort", single, oid)
			}
		}
		for i, oid := range committed {
			img, _ := st.GetCommitted(oid)
			if got, want := balance(oid), value.Int(int64(100+i)); !got.Equal(want) || !field(img, "balance").Equal(want) {
				t.Fatalf("single=%v: committed object %d balance %v (image %v) after the abort, want %v", single, oid, got, field(img, "balance"), want)
			}
		}
		for i, oid := range bare {
			if got, want := balance(oid), value.Int(int64(50+i)); !got.Equal(want) {
				t.Fatalf("single=%v: bare object %d balance %v after the abort, want %v", single, oid, got, want)
			}
		}
		if n := st.Count(); n != len(committed)+len(bare) {
			t.Fatalf("single=%v: %d objects after the abort, want %d", single, n, len(committed)+len(bare))
		}
	}
}
