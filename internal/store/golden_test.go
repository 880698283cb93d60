package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ode/internal/value"
)

// goldenWant is testdata/golden-pr12/expect.json: what the commit that
// wrote the directory recovered from it.
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
	TornTail  bool           `json:"torn_tail"`
	TxApplied int            `json:"tx_applied"`
	Snapshot  bool           `json:"snapshot_loaded"`
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
		if !ok || !sameTrigs(img.Trigs, r.Trigs) || !sameValues(img.Fields, r.Fields) {
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
			for _, v := range got.Params {
				params = append(params, v.AsInt())
			}
			if got.Active != wt.Active || got.State != wt.State || !reflect.DeepEqual(params, wt.Params) ||
				!reflect.DeepEqual(got.Shadow, wt.Shadow) {
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

// TestGoldenDirectory: a directory written before records had slots
// recovers to the same heap, trigger states, parameters and feed head
// its writer recovered, and still does after this codec has rewritten
// all of it (checkpoint) and appended to it.
func TestGoldenDirectory(t *testing.T) {
	dir, want := copyGolden(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ri := s.Recovery()
	if ri.TornTail != want.TornTail || ri.TxApplied != want.TxApplied || ri.SnapshotLoaded != want.Snapshot {
		t.Fatalf("recovery %+v, want torn=%v applied=%d snapshot=%v", ri, want.TornTail, want.TxApplied, want.Snapshot)
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

// rewire passes a decoded record through the in-memory form and back —
// the conversion recovery and the next commit apply to it.
func rewire(s *Store, w *wireRecord) (*wireRecord, error) {
	r, err := s.fromWire(w)
	if err != nil {
		return nil, err
	}
	return new(wireBuf).of(r)[0], nil
}

// rewireFrames rewires every record of a decoded log in place; false
// means recovery would refuse the log.
func rewireFrames(frames []frame) bool {
	s, _ := Open("")
	var err error
	for i := range frames {
		fr := &frames[i]
		if fr.Rec != nil {
			if fr.Rec, err = rewire(s, fr.Rec); err != nil {
				return false
			}
		}
		for j, w := range fr.Recs {
			if fr.Recs[j], err = rewire(s, w); err != nil {
				return false
			}
		}
	}
	return true
}

// gobCountsBounded reports whether every multi-byte unsigned integer a
// gob decoder could read anywhere in data is at most max. The fuzz
// targets skip inputs that fail it, for a reason outside this package:
// encoding/gob sizes a decoded map from the count in the stream
// (reflect.MakeMapWithSize) without comparing it to the bytes that
// follow, so one corrupted count byte is a multi-gigabyte allocation —
// an out-of-memory kill, not a panic a test can observe. The frames
// carry no checksum, so the same holds for recovery of a corrupted
// directory; replacing the per-frame gob codec is ROADMAP's next store
// item and removes this filter with it. The test over-rejects (large
// integers that are values, not counts) and never under-rejects: gob
// writes an integer above 127 as a byte 256-n followed by n bytes.
func gobCountsBounded(data []byte, max uint64) bool {
	for i, b := range data {
		if b < 0xf8 || b == 0xff {
			continue
		}
		var v uint64
		for _, c := range data[i+1 : min(i+1+256-int(b), len(data))] {
			v = v<<8 | uint64(c)
		}
		if v > max {
			return false
		}
	}
	return true
}

// fuzzSeedStore commits a little of everything the codec carries, with
// integers small enough for gobCountsBounded: activations with and
// without parameters and history, a deactivated trigger, a deletion, a
// multi-object transaction and firings.
func fuzzSeedStore(f *testing.F) (dir string) {
	dir = f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	a := s.Create("acct", map[string]value.Value{"bal": value.Int(7), "who": value.Str("x")})
	b := s.Create("acct", nil)
	c := s.Create("other", map[string]value.Value{"f": value.Float(2)})
	*a.Trigger("Over") = TrigState{Active: true, State: 2, Params: []value.Value{value.Int(9), value.Str("p")}, Shadow: []int{1, 0, 3}}
	*a.Trigger("Off") = TrigState{State: 1}
	*b.Trigger("Big") = TrigState{Active: true}
	for tx, step := range []func() ([]OID, []OID, []FiringRecord){
		func() ([]OID, []OID, []FiringRecord) { return []OID{a.OID, b.OID, c.OID}, nil, nil },
		func() ([]OID, []OID, []FiringRecord) {
			a.Trigger("Over").State = 0
			return []OID{a.OID}, nil, []FiringRecord{{OID: a.OID, Class: "acct", Trigger: "Over", Kind: "after deposit", AtNs: 5}}
		},
		func() ([]OID, []OID, []FiringRecord) { s.Delete(c.OID); return nil, []OID{c.OID}, nil },
	} {
		dirty, deleted, firings := step()
		if err := s.LogCommit(uint64(tx+1), dirty, deleted, firings); err != nil {
			f.Fatal(err)
		}
		if tx == 0 {
			if err := s.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	return dir
}

// fuzzCountMax bounds what gobCountsBounded lets through: counts this
// small cost gob at most a few hundred kilobytes.
const fuzzCountMax = 1 << 12

// FuzzWALFrames: arbitrary bytes never panic the WAL decoder or the
// record conversion, and decode → encode → decode is a fixed point —
// a log this codec accepted, it writes back and reads back unchanged.
func FuzzWALFrames(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join(fuzzSeedStore(f), walName))
	if err != nil {
		f.Fatal(err)
	}
	if !gobCountsBounded(seed, fuzzCountMax) {
		f.Fatal("the seed log does not pass the fuzz target's own filter")
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !gobCountsBounded(data, fuzzCountMax) {
			return
		}
		frames, sc, _ := scanWAL(data)
		if sc.cleanLen+sc.tornBytes != int64(len(data)) {
			t.Fatalf("scan accounts for %d+%d of %d bytes", sc.cleanLen, sc.tornBytes, len(data))
		}
		if !rewireFrames(frames) {
			return
		}
		var buf bytes.Buffer
		for _, fr := range frames {
			if err := encodeFrame(&buf, fr); err != nil {
				t.Fatal(err)
			}
		}
		again, sc2, reason := scanWAL(buf.Bytes())
		if sc2.tornBytes != 0 {
			t.Fatalf("re-encoded log does not decode cleanly: %s", reason)
		}
		if !rewireFrames(again) || !reflect.DeepEqual(frames, again) {
			t.Fatalf("decode → encode → decode is not a fixed point:\n first %+v\n again %+v", frames, again)
		}
	})
}

// FuzzSnapshot is FuzzWALFrames for the checkpoint file.
func FuzzSnapshot(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join(fuzzSeedStore(f), snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	if !gobCountsBounded(seed, fuzzCountMax) {
		f.Fatal("the seed snapshot does not pass the fuzz target's own filter")
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	rewireAll := func(img *snapshotImage) bool {
		s, _ := Open("")
		var err error
		for oid, w := range img.Objects {
			if img.Objects[oid], err = rewire(s, w); err != nil {
				return false // recovery refuses this snapshot
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !gobCountsBounded(data, fuzzCountMax) {
			return
		}
		img, err := decodeSnapshot(bytes.NewReader(data))
		if err != nil || !rewireAll(&img) {
			return
		}
		var buf bytes.Buffer
		if err := encodeSnapshot(&buf, &img); err != nil {
			t.Fatal(err)
		}
		again, err := decodeSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !rewireAll(&again) || !reflect.DeepEqual(img, again) {
			t.Fatalf("decode → encode → decode is not a fixed point:\n first %+v\n again %+v", img, again)
		}
	})
}
