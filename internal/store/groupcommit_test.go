package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/value"
)

// TestGroupCommitConcurrentDurability drives many concurrent LogCommit
// calls through the group committer and verifies every acknowledged
// commit is durable after reopen.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = s.Create("x", map[string]value.Value{"v": value.Int(int64(i))}).OID
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.LogCommit(uint64(i+1), []OID{oids[i]}, nil, nil); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, oid := range oids {
		r, err := s2.Get(oid)
		if err != nil {
			t.Fatalf("object %d lost: %v", oid, err)
		}
		if !r.Fields["v"].Equal(value.Int(int64(i))) {
			t.Fatalf("object %d recovered %v, want %d", oid, r.Fields["v"], i)
		}
	}
}

// TestCrashMidBatchRecovery simulates a crash partway through writing a
// commit batch: every previously acknowledged commit must recover, the
// torn trailing transaction must be discarded, and recovery must not
// error on the torn tail.
func TestCrashMidBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = s.Create("x", map[string]value.Value{"v": value.Int(int64(i))}).OID
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.LogCommit(uint64(i+1), []OID{oids[i]}, nil, nil); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	// Append one more transaction whose frame is torn mid-body — the
	// crash point of a batch that never finished its Write.
	rec := &Record{OID: oids[0], Class: "x", Fields: map[string]value.Value{"v": value.Int(999)}}
	frame, err := (&encoder{idx: map[string]int{}}).tx(99, []*Record{rec}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)-3]
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, oid := range oids {
		r, err := s2.Get(oid)
		if err != nil {
			t.Fatalf("acked commit for object %d lost: %v", oid, err)
		}
		if !r.Fields["v"].Equal(value.Int(int64(i))) {
			t.Fatalf("object %d recovered %v, want %d", oid, r.Fields["v"], i)
		}
	}
	// The torn transaction's Put must not have been applied.
	r, _ := s2.Get(oids[0])
	if r.Fields["v"].Equal(value.Int(999)) {
		t.Fatal("torn transaction applied on recovery")
	}
}
