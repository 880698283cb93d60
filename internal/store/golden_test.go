package store

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ode/internal/value"
)

// goldenWant is testdata/golden-pr12/expect.json: what the commit that
// wrote the directory recovered from it. The directory has since been
// converted to the current format (its README); the file's recovery
// counts describe the files before that and are not read.
type goldenWant struct {
	Objects []struct {
		OID      uint64 `json:"oid"`
		Class    string `json:"class"`
		Balance  int64  `json:"balance"`
		Triggers map[string]struct {
			Active bool    `json:"active"`
			State  int     `json:"state"`
			Params []int64 `json:"params"`
			Shadow []int   `json:"shadow"`
		} `json:"triggers"`
	} `json:"objects"`
	Firings   []FiringRecord `json:"firings"`
	FiringSeq uint64         `json:"firing_seq"`
}

// copyGolden copies the checked-in directory so recovery's tail repair
// never touches testdata.
func copyGolden(t testing.TB) (dir string, want goldenWant) {
	t.Helper()
	src := filepath.Join("testdata", "golden-pr12")
	dir = t.TempDir()
	for _, name := range []string{walName, snapshotName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(src, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// checkGolden compares a store against the expectations: heap, trigger
// states and parameters by name, feed content and head.
func checkGolden(t *testing.T, s *Store, want goldenWant) {
	t.Helper()
	oids := s.OIDs()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	if len(oids) != len(want.Objects) {
		t.Fatalf("recovered objects %v, want %d of them", oids, len(want.Objects))
	}
	for i, wo := range want.Objects {
		r, err := s.Get(OID(wo.OID))
		if err != nil || oids[i] != OID(wo.OID) {
			t.Fatalf("object %d missing (heap %v): %v", wo.OID, oids, err)
		}
		if r.Class != wo.Class || !r.Fields["balance"].Equal(value.Int(wo.Balance)) || len(r.Fields) != 1 {
			t.Fatalf("object %d recovered as %s %v, want %s balance=%d", wo.OID, r.Class, r.Fields, wo.Class, wo.Balance)
		}
		img, ok := s.GetCommitted(r.OID)
		if !ok || !sameTrigs(img.Trigs, r.Trigs) || !maps.Equal(img.Fields, r.Fields) {
			t.Fatalf("object %d: committed image does not match the recovered record", wo.OID)
		}
		seen := 0
		for slot := range r.Trigs {
			got := &r.Trigs[slot]
			if got.IsZero() {
				continue
			}
			seen++
			name := r.TrigName(slot)
			wt, ok := wo.Triggers[name]
			if !ok {
				t.Fatalf("object %d carries trigger %s, which the directory's writer never activated", wo.OID, name)
			}
			var params []int64
			for _, v := range got.Params() {
				params = append(params, v.AsInt())
			}
			if got.Active != wt.Active || int(got.State) != wt.State || !reflect.DeepEqual(params, wt.Params) ||
				!reflect.DeepEqual(got.Shadow(), wt.Shadow) {
				t.Fatalf("object %d trigger %s recovered as %+v, want %+v", wo.OID, name, *got, wt)
			}
		}
		if seen != len(wo.Triggers) {
			t.Fatalf("object %d recovered %d activated triggers, want %d", wo.OID, seen, len(wo.Triggers))
		}
	}
	firings, head := s.FiringsFrom(0, 1<<20)
	if !reflect.DeepEqual(firings, want.Firings) || head != want.FiringSeq || s.FiringSeq() != want.FiringSeq {
		t.Fatalf("feed recovered as %+v head %d, want %+v head %d", firings, head, want.Firings, want.FiringSeq)
	}
}

// TestGoldenDirectory: a directory written before records had slots,
// converted once to the current format, recovers to the same heap,
// trigger states, parameters and feed head its writer recovered, and
// still does after being appended to and checkpointed.
func TestGoldenDirectory(t *testing.T) {
	dir, want := copyGolden(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ri := s.Recovery(); !ri.SnapshotLoaded || ri.WALFrames != 0 || ri.TornTail {
		t.Fatalf("recovery %+v, want the converted snapshot alone", ri)
	}
	checkGolden(t, s, want)

	// An unchanged object logged again, then everything re-encoded.
	if err := s.LogCommit(1000, []OID{OID(want.Objects[0].OID)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, s, want)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ri := s.Recovery(); ri.WALFrames != 0 || !ri.SnapshotLoaded {
		t.Fatalf("after checkpoint: %+v", ri)
	}
	checkGolden(t, s, want)
}

var writeGolden = flag.Bool("write-golden-pr14", false, "rewrite testdata/golden-pr14 from the current codec (only when adding it)")

// golden14 is testdata/golden-pr14/expect.json.
type golden14 struct {
	Store         storeDump `json:"store"`
	TornTailBytes int64     `json:"torn_tail_bytes"`
	TxApplied     int       `json:"tx_applied"`
}

// TestGoldenPR14 pins the format this codec writes: the checked-in
// directory (richStore, checkpointed after its second transaction, plus
// a torn tail) must keep recovering to the checked-in expectation
// whatever later codecs write.
func TestGoldenPR14(t *testing.T) {
	src := filepath.Join("testdata", "golden-pr14")
	const tail = 11 // bytes of a torn frame after the last transaction
	if *writeGolden {
		dir := t.TempDir()
		want := golden14{Store: richStore(t, dir, 2), TornTailBytes: tail, TxApplied: 2}
		wal := readFile(t, dir, walName)
		wal = append(wal, wal[frameBounds(t, wal)[1]:][:tail]...)
		expect, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{walName: wal, snapshotName: readFile(t, dir, snapshotName), "expect.json": append(expect, '\n')} {
			if err := os.WriteFile(filepath.Join(src, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want golden14
	if err := json.Unmarshal(readFile(t, src, "expect.json"), &want); err != nil {
		t.Fatal(err)
	}
	// A copy: recovery's tail repair must not touch testdata.
	got, ri, err := recoverFiles(t, t.TempDir(), readFile(t, src, walName), readFile(t, src, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !ri.SnapshotLoaded || !ri.TornTail || ri.TornTailBytes != want.TornTailBytes || ri.TxApplied != want.TxApplied {
		t.Fatalf("recovery %+v, want a snapshot, %d transaction(s) and a %d-byte torn tail", ri, want.TxApplied, want.TornTailBytes)
	}
	if !reflect.DeepEqual(got, want.Store) {
		t.Fatalf("recovered\n got %+v\nwant %+v", got, want.Store)
	}
}
