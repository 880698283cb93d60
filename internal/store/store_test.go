package store

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"ode/internal/value"
)

func TestCreateGetDelete(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Create("account", map[string]value.Value{"balance": value.Int(100)})
	if r.OID != 1 || r.Class != "account" {
		t.Fatalf("record %+v", r)
	}
	got, err := s.Get(r.OID)
	if err != nil || !got.Fields["balance"].Equal(value.Int(100)) {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	if !s.Exists(r.OID) || s.Count() != 1 {
		t.Fatal("Exists/Count")
	}
	r2 := s.Create("account", nil)
	if r2.OID != 2 {
		t.Fatalf("second oid %d", r2.OID)
	}
	if err := s.Delete(r.OID); err != nil {
		t.Fatal(err)
	}
	if s.Exists(r.OID) {
		t.Fatal("deleted object still exists")
	}
	if _, err := s.Get(r.OID); err == nil {
		t.Fatal("Get of deleted object succeeded")
	}
	if err := s.Delete(r.OID); err == nil {
		t.Fatal("double delete succeeded")
	}
	if got := s.OIDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("OIDs = %v", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s, _ := Open("")
	r := s.Create("account", map[string]value.Value{"balance": value.Int(100)})
	r.Trigger("t1").State = 3

	img, err := s.Snapshot(r.OID)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the live record; the snapshot must be unaffected.
	r.SetField("balance", value.Int(0))
	r.Trigger("t1").State = 9
	if !img.Fields["balance"].Equal(value.Int(100)) || img.Trigger("t1").State != 3 {
		t.Fatal("snapshot aliases live record")
	}

	s.Restore(img, nil)
	back, _ := s.Get(r.OID)
	if !back.Fields["balance"].Equal(value.Int(100)) || back.Trigger("t1").State != 3 {
		t.Fatal("restore did not reinstate the before-image")
	}
	// Restoring also resurrects a deleted object.
	s.Delete(r.OID)
	s.Restore(img, nil)
	if !s.Exists(r.OID) {
		t.Fatal("restore did not resurrect")
	}

	if _, err := s.Snapshot(999); err == nil {
		t.Fatal("snapshot of missing object succeeded")
	}
	s.Remove(r.OID)
	if s.Exists(r.OID) {
		t.Fatal("Remove left the object")
	}
	s.Remove(r.OID) // idempotent
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Create("account", map[string]value.Value{"balance": value.Int(7)})
	b := s.Create("account", map[string]value.Value{"balance": value.Int(8)})
	if err := s.LogCommit(1, []OID{a.OID, b.OID}, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Second transaction updates a and deletes b.
	a.SetField("balance", value.Int(70))
	s.Delete(b.OID)
	if err := s.LogCommit(2, []OID{a.OID}, []OID{b.OID}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 1 {
		t.Fatalf("recovered %d objects, want 1", s2.Count())
	}
	ra, err := s2.Get(a.OID)
	if err != nil || !ra.Fields["balance"].Equal(value.Int(70)) {
		t.Fatalf("recovered a: %+v, %v", ra, err)
	}
	if s2.Exists(b.OID) {
		t.Fatal("deleted object recovered")
	}
	// OID allocation resumes past recovered objects.
	c := s2.Create("account", nil)
	if c.OID <= a.OID {
		t.Fatalf("oid reuse: %d", c.OID)
	}
}

func TestTornFrameIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := s.Create("x", map[string]value.Value{"v": value.Int(1)})
	s.LogCommit(1, []OID{a.OID}, nil, nil)
	s.Close()

	// Append garbage: a length prefix promising more bytes than exist.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Exists(a.OID) {
		t.Fatal("intact prefix lost")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := s.Create("x", map[string]value.Value{"v": value.Int(5)})
	s.LogCommit(1, []OID{a.OID}, nil, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil || st.Size() != fileHdrLen {
		t.Fatalf("wal after checkpoint: %v bytes, %v; want the file header alone", st.Size(), err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra, err := s2.Get(a.OID)
	if err != nil || !ra.Fields["v"].Equal(value.Int(5)) {
		t.Fatalf("snapshot recovery: %+v, %v", ra, err)
	}
	// A post-checkpoint commit lands in the fresh WAL and both layers
	// recover together.
	ra.SetField("v", value.Int(6))
	s2.LogCommit(2, []OID{a.OID}, nil, nil)
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	ra3, _ := s3.Get(a.OID)
	if !ra3.Fields["v"].Equal(value.Int(6)) {
		t.Fatal("post-checkpoint commit lost")
	}
}

func TestVolatileStoreNoFiles(t *testing.T) {
	s, _ := Open("")
	a := s.Create("x", nil)
	if err := s.LogCommit(1, []OID{a.OID}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTrigStatePersisted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := s.Create("x", nil)
	act := a.Trigger("stockRoom.T6#1")
	act.Active = true
	act.State = 4
	act.ext = newExt([]value.Value{value.Int(7)})
	s.LogCommit(1, []OID{a.OID}, nil, nil)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra, _ := s2.Get(a.OID)
	got := ra.Trigger("stockRoom.T6#1")
	if !got.Active || got.State != 4 || len(got.Params()) != 1 || !got.Params()[0].Equal(value.Int(7)) {
		t.Fatalf("trigger activation lost: %+v", got)
	}
}

func TestTrigStateIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(TrigState{}); n != 16 {
		t.Fatalf("a TrigState is %d bytes, want 16", n)
	}
}

// TestBytesPerObject pins what one committed object keeps resident: the
// live record and its image, each a Record and three trigger slots, the
// one-field map they share, plus the object's table slot — the
// per-object figure a fleet's heap is made of (DESIGN.md §9). It holds
// after the first commit, after every object was written once (the
// write copies the map, the commit drops the old image's) and after a
// commit that wrote nothing.
func TestBytesPerObject(t *testing.T) {
	const n, budget = 10000, 800
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s, _ := Open("")
	oids := make([]OID, n)
	for i := range oids {
		r := s.Create("sensor", map[string]value.Value{"v": value.Int(int64(i))})
		for _, name := range []string{"A", "B", "C"} {
			*r.Trigger(name) = TrigState{Active: true}
		}
		oids[i] = r.OID
	}
	commit := func(txID uint64, phase string) {
		if err := s.Commit(txID, s.touchedOf(oids), nil, nil); err != nil {
			t.Fatal(err)
		}
		per := float64(heap()-before) / n
		t.Logf("%s: %.0f bytes per committed object", phase, per)
		if per > budget {
			t.Errorf("%s: a committed one-field, three-trigger object keeps %.0f bytes, budget %d", phase, per, budget)
		}
	}
	commit(1, "created")
	for i, oid := range oids {
		r, err := s.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		r.SetField("v", value.Int(int64(n+i)))
	}
	commit(2, "written once")
	commit(3, "no write")
	runtime.KeepAlive(s)
}

// TestNaNFieldIsNotPerpetuallyDirty: change is detected by comparing
// content, and a NaN must compare equal to itself there or the object
// gets a new image, a WAL record and a publication at every commit.
func TestNaNFieldIsNotPerpetuallyDirty(t *testing.T) {
	s, _ := Open("")
	r := s.Create("c", map[string]value.Value{"f": value.Float(math.NaN())})
	r.Trigger("T").SetParams([]value.Value{value.Float(math.NaN())})
	prev := r.image(nil)
	if img := r.image(prev); img != prev {
		t.Fatal("an unchanged record holding a NaN got a new image")
	}
	r.Trigger("T").SetParams([]value.Value{value.Float(math.NaN())}) // equal content in a fresh slice
	if img := r.image(prev); img != prev {
		t.Fatal("re-activation with an equal NaN parameter got a new image")
	}
	r.SetField("f", value.Float(0))
	if img := r.image(prev); img == prev {
		t.Fatal("a changed field kept the old image")
	}
}

// TestCheckpointSyncsTheDirectoryBeforeTruncating pins a checkpoint's
// order: rename the snapshot, fsync the directory, truncate the WAL. A
// truncation made durable while the rename is not could leave the old
// snapshot beside an empty log after a crash, losing every transaction
// since the previous checkpoint. A failed directory sync leaves the WAL
// whole.
func TestCheckpointSyncsTheDirectoryBeforeTruncating(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit := func(id uint64) {
		r := s.Create("c", map[string]value.Value{"a": value.Int(int64(id))})
		if err := s.LogCommit(id, []OID{r.OID}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	walLen := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	defer func() { syncDir = SyncDir }()

	commit(1)
	full, calls := walLen(), 0
	syncDir = func(d string) error {
		calls++
		if d != dir {
			t.Errorf("synced %s, want the store's directory %s", d, dir)
		}
		if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
			t.Errorf("directory synced before the snapshot was renamed into place: %v", err)
		}
		if n := walLen(); n != full {
			t.Errorf("WAL truncated to %d of %d bytes before the directory sync", n, full)
		}
		return SyncDir(d)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("checkpoint synced the directory %d times, want 1", calls)
	}
	if n := walLen(); n >= full {
		t.Fatalf("checkpoint left the WAL at %d bytes (was %d)", n, full)
	}

	commit(2)
	full = walLen()
	syncDir = func(string) error { return os.ErrPermission }
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded although its directory sync failed")
	}
	if n := walLen(); n != full {
		t.Fatalf("a checkpoint whose directory sync failed truncated the WAL to %d of %d bytes", n, full)
	}
}
