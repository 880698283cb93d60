package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/fault"
	"ode/internal/value"
)

// TestCrashRecoveryProperty simulates crashes at every possible torn
// point of the write-ahead log: after a sequence of committed
// transactions, the WAL is truncated at a random byte offset and the
// store reopened. Recovery must expose a state equal to some prefix of
// the committed transaction sequence — never a partial transaction,
// never data from a later transaction without the earlier ones.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}

		// Build a ledger object and apply numbered committed updates;
		// after transaction k the object's "v" is k and "sum" is
		// 1+2+...+k, giving a consistency invariant per prefix.
		rec := s.Create("ledger", map[string]value.Value{
			"v":   value.Int(0),
			"sum": value.Int(0),
		})
		if err := s.LogCommit(1, []OID{rec.OID}, nil, nil); err != nil {
			t.Fatal(err)
		}
		const txs = 8
		for k := 1; k <= txs; k++ {
			rec.SetField("v", value.Int(int64(k)))
			rec.SetField("sum", value.Int(rec.Fields["sum"].AsInt()+int64(k)))
			if err := s.LogCommit(uint64(k+1), []OID{rec.OID}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		walPath := filepath.Join(dir, walName)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Intn(len(data) + 1)
		if err := os.WriteFile(walPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("iter %d cut %d: recovery failed: %v", iter, cut, err)
		}
		if s2.Exists(rec.OID) {
			got, _ := s2.Get(rec.OID)
			v := got.Fields["v"].AsInt()
			sum := got.Fields["sum"].AsInt()
			if v < 0 || v > txs {
				t.Fatalf("iter %d cut %d: v=%d out of range", iter, cut, v)
			}
			if want := v * (v + 1) / 2; sum != want {
				t.Fatalf("iter %d cut %d: torn state v=%d sum=%d (want %d)", iter, cut, v, sum, want)
			}
		}
		s2.Close()
	}
}

// TestCrashAfterCheckpoint cuts the WAL after a checkpoint: the
// snapshot alone must already carry everything up to the checkpoint.
func TestCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	rec := s.Create("x", map[string]value.Value{"v": value.Int(1)})
	s.LogCommit(1, []OID{rec.OID}, nil, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec.SetField("v", value.Int(2))
	s.LogCommit(2, []OID{rec.OID}, nil, nil)
	s.Close()

	// Destroy the whole post-checkpoint WAL.
	if err := os.WriteFile(filepath.Join(dir, walName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(rec.OID)
	if err != nil || !got.Fields["v"].Equal(value.Int(1)) {
		t.Fatalf("checkpoint state lost: %+v, %v", got, err)
	}
}

// TestCrashBetweenSyncAndAck simulates a crash in the window between
// the group-commit leader's Sync returning and the committer being
// notified: the commit is durable on disk, but the caller only ever
// sees an error. Recovery must replay the transaction — losing it
// would break the "acknowledged or durable" half of the contract from
// the other side: an unacknowledged commit may still be durable, and
// the store must converge on the on-disk truth.
func TestCrashBetweenSyncAndAck(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New()
	s, err := OpenWith(dir, Options{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Create("acct", map[string]value.Value{"bal": value.Int(7)})
	reg.ArmNext(fault.WALAfterSync)
	err = s.LogCommit(1, []OID{rec.OID}, nil, nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("LogCommit: got %v, want injected ack failure", err)
	}
	// The "crash": abandon the store without further writes (Close only
	// releases the file handle; the WAL already holds the synced batch).
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if got := s2.Recovery().TxApplied; got != 1 {
		t.Fatalf("recovered %d committed transactions, want 1", got)
	}
	got, err := s2.Get(rec.OID)
	if err != nil || !got.Fields["bal"].Equal(value.Int(7)) {
		t.Fatalf("unacknowledged commit lost after recovery: %+v, %v", got, err)
	}
}

// TestGroupCommitAckCrashFollowersDurable is the concurrent version:
// several committers race into the group-commit queue, the leader's
// shared Sync succeeds, and the crash lands before any follower is
// notified. Every committer — leader and followers alike — receives
// the failure, yet after reopening every one of their transactions
// must be present: a follower whose notification never arrived still
// finds its commit durable, because followers are only acked after
// the leader's Sync and the fault fires strictly after that Sync.
func TestGroupCommitAckCrashFollowersDurable(t *testing.T) {
	const committers = 6
	dir := t.TempDir()
	reg := fault.New()
	s, err := OpenWith(dir, Options{Faults: reg}) // group commit on (the default)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, committers)
	for i := range recs {
		recs[i] = s.Create("acct", map[string]value.Value{"n": value.Int(int64(i))})
	}
	// However the concurrent commits coalesce — anywhere from one batch
	// of six to six batches of one — each batch performs exactly one
	// post-sync ack consult, so arming one plan per possible batch
	// guarantees every flush in the window fails after its Sync.
	base := reg.Consults(fault.WALAfterSync)
	for i := uint64(1); i <= committers; i++ {
		reg.ArmAt(fault.WALAfterSync, base+i)
	}
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.LogCommit(uint64(i+1), []OID{recs[i].OID}, nil, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("committer %d: got %v, want injected ack failure", i, err)
		}
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if got := s2.Recovery().TxApplied; got != committers {
		t.Fatalf("recovered %d committed transactions, want %d", got, committers)
	}
	for i, rec := range recs {
		got, err := s2.Get(rec.OID)
		if err != nil || !got.Fields["n"].Equal(value.Int(int64(i))) {
			t.Fatalf("committer %d: unacknowledged commit lost: %+v, %v", i, got, err)
		}
	}
}
