package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ode/internal/value"
)

// shape counts the nodes and chunks the table holds.
func (t *table) shape() (nodes, chunks int) {
	var count func(n *node)
	count = func(n *node) {
		nodes++
		for i := range n.kids {
			if sub := n.kids[i].Load(); sub != nil {
				count(sub)
			}
			if n.chunks[i].Load() != nil {
				chunks++
			}
		}
	}
	count(t.root.Load())
	return nodes, chunks
}

// chunks counts the chunks the table holds.
func (t *table) chunks() int {
	_, n := t.shape()
	return n
}

// TestTableFreesDeadChunks: once every OID of a chunk was allocated and
// its object deleted for good — a committed deletion or an undone
// creation — the chunk is freed, and its OIDs read as absent. Only the
// chunk that allocation is still filling survives.
func TestTableFreesDeadChunks(t *testing.T) {
	const n = 100000
	s, _ := Open("")
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = s.Create("c", map[string]value.Value{"v": value.Int(int64(i))}).OID
	}
	if err := s.Commit(1, s.touchedOf(oids[:n/2]), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := s.tab.chunks(), (n+chunkSize-1)/chunkSize; got != want {
		t.Fatalf("%d objects fill %d chunks, want %d", n, got, want)
	}
	// The committed half is deleted by a commit, the rest undone.
	for _, oid := range oids[:n/2] {
		if err := s.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(2, nil, oids[:n/2], nil); err != nil {
		t.Fatal(err)
	}
	for _, oid := range oids[n/2:] {
		s.Remove(oid)
	}
	if got := s.tab.chunks(); got != 1 {
		t.Fatalf("%d chunks left after every object died, want 1 (the one still filling)", got)
	}
	if s.Count() != 0 || len(s.OIDs()) != 0 || len(s.CommittedOIDs()) != 0 {
		t.Fatalf("dead objects still listed: count %d, %d live, %d committed", s.Count(), len(s.OIDs()), len(s.CommittedOIDs()))
	}
	if _, ok := s.GetCommitted(oids[0]); ok || s.Exists(oids[0]) {
		t.Fatal("an object of a freed chunk is still visible")
	}
	// Allocation goes on past the freed chunks.
	r := s.Create("c", nil)
	if r.OID != oids[n-1]+1 || !s.Exists(r.OID) {
		t.Fatalf("next object %d (exists %v), want %d", r.OID, s.Exists(r.OID), oids[n-1]+1)
	}
	// An OID past the tree's reach is absent, not read through its alias.
	if far := r.OID + fan*chunkSize; s.Exists(far) {
		t.Fatalf("object %d, never allocated, exists", far)
	}
}

// TestTableGrowsAndFreesConcurrently (under -race in CI): creators
// install chunks while removers free them and readers walk and look up
// — the tree must lose neither an installed chunk nor a freed one, and
// no creation may land in a freed chunk.
func TestTableGrowsAndFreesConcurrently(t *testing.T) {
	const workers, each = 4, 3000
	s, _ := Open("")
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, oid := range s.OIDs() {
				s.Exists(oid)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < each; i++ {
				r := s.Create("c", nil)
				if got, err := s.Get(r.OID); err != nil || got != r {
					t.Errorf("object %d: %v", r.OID, err)
					return
				}
				s.Remove(r.OID)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := s.tab.chunks(); s.Count() != 0 || got > 1 {
		t.Fatalf("after %d creations all undone: count %d, %d chunks left, want at most the one still filling", workers*each, s.Count(), got)
	}
}

// TestRecoveryRejectsForeignOID: a directory written by a store of
// another residue class — a partition of another partition count —
// fails the open and names the object, from the log and from a
// snapshot alike, instead of serving objects its router never sends
// there.
func TestRecoveryRejectsForeignOID(t *testing.T) {
	dir := t.TempDir()
	two := Options{OIDBase: 1, OIDStride: 2}
	s, err := OpenWith(dir, two)
	if err != nil {
		t.Fatal(err)
	}
	var oids []OID
	for i := 0; i < 3; i++ {
		oids = append(oids, s.Create("c", nil).OID)
	}
	if !slices.Equal(oids, []OID{1, 3, 5}) {
		t.Fatalf("stride-2 store allocated %v", oids)
	}
	if err := s.LogCommit(1, oids, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	three := Options{OIDBase: 1, OIDStride: 3}
	for _, phase := range []string{"log", "snapshot"} {
		if _, err := OpenWith(dir, three); err == nil || !strings.Contains(err.Error(), "object 3 ") {
			t.Fatalf("%s: stride-3 open of a stride-2 directory: %v", phase, err)
		}
		s, err := OpenWith(dir, two)
		if err != nil {
			t.Fatalf("%s: reopen with the writer's options: %v", phase, err)
		}
		if got := s.OIDs(); !slices.Equal(got, oids) {
			t.Fatalf("%s: reopened with %v, want %v", phase, got, oids)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

// TestCheckpointIsDeterministic: the same committed state checkpoints to
// the same bytes — records in ascending OID order, fields in name order.
func TestCheckpointIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oids := make([]OID, 1000)
	for i := range oids {
		r := s.Create(fmt.Sprintf("c%d", i%3), map[string]value.Value{
			"a": value.Int(int64(i)), "b": value.Str("x"), "c": value.Bool(i%2 == 0), "d": value.Float(0.5),
		})
		*r.Trigger("T") = TrigState{Active: true, State: int32(i % 5)}
		oids[i] = r.OID
	}
	if err := s.LogCommit(1, oids, nil, nil); err != nil {
		t.Fatal(err)
	}
	var snaps [2][]byte
	for i := range snaps {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snaps[i] = readFile(t, dir, snapshotName)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("two checkpoints of one state differ (%d and %d bytes)", len(snaps[0]), len(snaps[1]))
	}
}

// farOIDImages returns log and snapshot images that are well formed
// except for OIDs near 2^63: a record's, a deletion's and, in a
// snapshot, the allocator position's.
func farOIDImages() (logs, snaps [][]byte) {
	const far = 1<<63 + 1
	uv := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	name := append(uv(1, 1), 'c') // the string table ["c"]
	record := slices.Concat(uv(1), name, uv(1, far, 0, 0, 0), uv(0, 0))
	deletion := slices.Concat(uv(1), name, uv(0, 1, far, 0))
	logs = [][]byte{sealedLog(record), sealedLog(deletion)}
	snap := func(next uint64, chunk []byte, records uint64) []byte {
		out := appendFrame(bytes.Clone(snapMagic[:]), frameSnapHeader, uv(next, 0))
		if chunk != nil {
			out = appendFrame(out, frameTx, chunk)
		}
		return appendFrame(out, frameSnapTrailer, uv(records, 0))
	}
	snaps = [][]byte{snap(2, record, 1), snap(far, nil, 0)}
	return logs, snaps
}

// TestFarOIDCostsOnePath: an OID near 2^63 in a log or a snapshot
// loads like any other — the tree grows one path of nodes to one chunk,
// not a directory sized by the OID — and allocation resumes past it.
func TestFarOIDCostsOnePath(t *testing.T) {
	logs, snaps := farOIDImages()
	check := func(what string, s *Store) {
		t.Helper()
		r := s.Create("c", nil)
		if r.OID <= 1<<63 || !s.Exists(r.OID) {
			t.Errorf("%s: next object %d (exists %v), want one past 2^63", what, r.OID, s.Exists(r.OID))
		}
		if nodes, chunks := s.tab.shape(); nodes > maxHeight || chunks != 1 {
			t.Errorf("%s: the table holds %d nodes and %d chunks, want at most %d and 1", what, nodes, chunks, maxHeight)
		}
	}
	for i, log := range logs {
		s, _ := Open("")
		applied := 0
		sc, reason := s.scanWAL(log, func(tx *txImage) {
			applied++
			for _, r := range tx.recs {
				if err := s.install(r); err != nil {
					t.Error(err)
				}
			}
		})
		if applied != 1 || sc.tornBytes != 0 || reason != "" {
			t.Errorf("log %d: %d frame(s) applied, scan %+v, %q", i, applied, sc, reason)
		}
		if i == 0 {
			check(fmt.Sprintf("log %d", i), s)
		}
	}
	for i, snap := range snaps {
		s, _ := Open("")
		st, err := s.loadSnapshot(snap)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		s.advance(uint64(st.next))
		s.seedEpochView()
		check(fmt.Sprintf("snapshot %d", i), s)
	}
}

// TestTableFreesDeadNodes: a store whose allocator passed 2^40 keeps
// allocating, and once the objects up there are gone the tree holds its
// root alone again — the table follows the objects a store holds, not
// how many it ever allocated.
func TestTableFreesDeadNodes(t *testing.T) {
	s, _ := Open("")
	s.advance(1<<40 + 1) // slot 2^40, the first of a chunk
	oids := make([]OID, chunkSize)
	for i := range oids {
		oids[i] = s.Create("c", nil).OID
	}
	if nodes, chunks := s.tab.shape(); nodes != 4 || chunks != 1 {
		t.Fatalf("one chunk at index 2^40: %d nodes and %d chunks, want 4 and 1", nodes, chunks)
	}
	for _, oid := range oids {
		s.Remove(oid)
	}
	if nodes, chunks := s.tab.shape(); nodes != 1 || chunks != 0 {
		t.Fatalf("after every object died: %d nodes and %d chunks, want the root alone", nodes, chunks)
	}
	if r := s.Create("c", nil); r.OID != oids[chunkSize-1]+1 || !s.Exists(r.OID) {
		t.Fatalf("next object %d, want %d", r.OID, oids[chunkSize-1]+1)
	}
}
