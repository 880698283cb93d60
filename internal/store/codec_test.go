package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ode/internal/fault"
	"ode/internal/value"
)

// storeDump is a store's recoverable content in comparable, JSON-able
// form: trigger state by name (slots are one run's assignment), values
// rendered with their kind.
type storeDump struct {
	Next      uint64         `json:"next_oid"`
	Objects   []objectDump   `json:"objects"`
	Firings   []FiringRecord `json:"firings"`
	FiringSeq uint64         `json:"firing_seq"`
}

type objectDump struct {
	OID      uint64              `json:"oid"`
	Class    string              `json:"class"`
	Fields   map[string]string   `json:"fields"`
	Triggers map[string]trigDump `json:"triggers"`
}

type trigDump struct {
	Active bool     `json:"active"`
	State  int      `json:"state"`
	Params []string `json:"params,omitempty"`
}

// renderValue is exact: float bits, time instant to the nanosecond and
// zone offset.
func renderValue(v value.Value) string {
	s := v.String()
	switch v.Kind {
	case value.KindFloat:
		s = strconv.FormatUint(math.Float64bits(v.AsFloat()), 16)
	case value.KindTime:
		s = v.AsTime().Format(time.RFC3339Nano)
	}
	return v.Kind.String() + ":" + s
}

func dumpRecord(r *Record) objectDump {
	fields := map[string]string{}
	for k, v := range r.Fields {
		fields[k] = renderValue(v)
	}
	o := objectDump{OID: uint64(r.OID), Class: r.Class, Fields: fields, Triggers: map[string]trigDump{}}
	for slot := range r.Trigs {
		t := &r.Trigs[slot]
		if t.IsZero() {
			continue
		}
		td := trigDump{Active: t.Active, State: int(t.State)}
		for _, p := range t.Params() {
			td.Params = append(td.Params, renderValue(p))
		}
		o.Triggers[r.TrigName(slot)] = td
	}
	return o
}

func dumpStore(s *Store) storeDump {
	d := storeDump{Next: s.nextOID.Load(), Objects: []objectDump{}}
	oids := s.OIDs()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		r, _ := s.Get(oid)
		d.Objects = append(d.Objects, dumpRecord(r))
	}
	d.Firings, d.FiringSeq = s.FiringsFrom(0, 0)
	if d.Firings == nil {
		d.Firings = []FiringRecord{}
	}
	return d
}

// zoned is a time with sub-second precision in a zone that is neither
// UTC nor the machine's.
var zoned = time.Date(2001, 2, 3, 4, 5, 6, 789, time.FixedZone("", 5*3600+1800))

// richStore commits a little of everything the codec carries into a
// fresh durable store in dir and closes it: every value kind,
// activations with and without parameters, a deactivated
// trigger, a multi-object transaction, firings, a deletion. It
// checkpoints after transaction checkpointAfter (0 = never), so the
// snapshot and the log both hold something.
func richStore(t testing.TB, dir string, checkpointAfter int) storeDump {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Create("acct", nil)
	a := s.Create("acct", map[string]value.Value{
		"bal": value.Int(-7), "who": value.Str("x"), "rate": value.Float(2.5), "ok": value.Bool(true),
		"none": value.Null(), "at": value.Time(zoned), "utc": value.Time(zoned.UTC()), "peer": value.ID(uint64(b.OID)),
	})
	c := s.Create("other", map[string]value.Value{"f": value.Float(math.Inf(-1))})
	*a.Trigger("Over") = TrigState{Active: true, State: 2, ext: newExt([]value.Value{value.Int(9), value.Str("p"), value.Time(zoned)})}
	*a.Trigger("Off") = TrigState{State: 1}
	*b.Trigger("Big") = TrigState{Active: true}
	firing := func(r *Record, trig string, at int64) FiringRecord {
		return FiringRecord{OID: r.OID, Part: 1, Class: r.Class, Trigger: trig, Kind: "after deposit", AtNs: at}
	}
	for tx, step := range []func() ([]OID, []OID, []FiringRecord){
		func() ([]OID, []OID, []FiringRecord) {
			return []OID{a.OID, b.OID, c.OID}, nil, []FiringRecord{firing(a, "Over", 5), firing(b, "Big", -1)}
		},
		func() ([]OID, []OID, []FiringRecord) {
			a.Trigger("Over").State = 0
			a.SetField("bal", value.Int(1<<40))
			return []OID{a.OID}, nil, []FiringRecord{firing(a, "Over", 6)}
		},
		func() ([]OID, []OID, []FiringRecord) { s.Delete(c.OID); return nil, []OID{c.OID}, nil },
		func() ([]OID, []OID, []FiringRecord) {
			b.SetField("bal", value.Int(3))
			*b.Trigger("Over") = TrigState{Active: true, State: 1, ext: newExt([]value.Value{value.Float(0.5)})}
			return []OID{a.OID, b.OID}, nil, []FiringRecord{firing(b, "Over", 7), firing(a, "Over", 8), firing(b, "Big", 9)}
		},
	} {
		dirty, deleted, firings := step()
		if err := s.LogCommit(uint64(tx+1), dirty, deleted, firings); err != nil {
			t.Fatal(err)
		}
		if tx+1 == checkpointAfter {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := dumpStore(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

func readFile(t testing.TB, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recoverFiles opens a directory holding exactly these two files (nil =
// absent) and returns what recovery made of them.
func recoverFiles(t testing.TB, dir string, wal, snap []byte) (storeDump, RecoveryInfo, error) {
	t.Helper()
	for name, data := range map[string][]byte{walName: wal, snapshotName: snap} {
		path := filepath.Join(dir, name)
		if data == nil {
			os.Remove(path)
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		return storeDump{}, RecoveryInfo{}, err
	}
	defer s.Close()
	return dumpStore(s), s.Recovery(), nil
}

// frameBounds returns the offsets at which a log image's clean frames
// end: bounds[k] is the length of the prefix holding k frames.
func frameBounds(t testing.TB, wal []byte) []int {
	t.Helper()
	bounds := []int{fileHdrLen}
	clean, reason := scanFrames(wal[fileHdrLen:], func([]byte) error { return nil })
	if reason != "" {
		t.Fatalf("log is not clean: %s", reason)
	}
	for off := fileHdrLen; off < fileHdrLen+clean; {
		off += frameHdrLen + int(binary.LittleEndian.Uint32(wal[off:]))
		bounds = append(bounds, off)
	}
	return bounds
}

// prefixDumps recovers every clean prefix of a log: dumps[k] is the state
// after its first k transactions.
func prefixDumps(t testing.TB, dir string, wal []byte, bounds []int) []storeDump {
	t.Helper()
	dumps := make([]storeDump, len(bounds))
	for k, end := range bounds {
		d, ri, err := recoverFiles(t, dir, wal[:end], nil)
		if err != nil || ri.TornTail || ri.TxApplied != k {
			t.Fatalf("clean prefix of %d frame(s): %+v, %v", k, ri, err)
		}
		dumps[k] = d
	}
	return dumps
}

// TestTornTailEveryOffset cuts a log of multi-object transactions with
// firings — its last three frames as contiguous as a group-commit batch
// writes them — at every byte: recovery is all-or-nothing per
// transaction, everything before the cut frame intact, and reports
// exactly the bytes it discarded.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	want := richStore(t, dir, 0)
	wal := readFile(t, dir, walName)
	bounds := frameBounds(t, wal)
	if len(bounds) != 5 {
		t.Fatalf("log holds %d frames, want one per transaction (4)", len(bounds)-1)
	}
	dumps := prefixDumps(t, dir, wal, bounds)
	if !reflect.DeepEqual(dumps[4], want) {
		t.Fatalf("full log recovers\n got %+v\nwant %+v", dumps[4], want)
	}
	for cut := 0; cut <= len(wal); cut++ {
		k, clean := 0, 0 // frames and bytes that survive the cut
		for i, end := range bounds {
			if end <= cut {
				k, clean = i, end
			}
		}
		got, ri, err := recoverFiles(t, dir, wal[:cut], nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, dumps[k]) {
			t.Fatalf("cut %d: recovered\n got %+v\nwant the first %d transaction(s) %+v", cut, got, k, dumps[k])
		}
		if ri.TxApplied != k || ri.TornTail != (cut > clean) || ri.TornTailBytes != int64(cut-clean) {
			t.Fatalf("cut %d (clean prefix %d, %d frame(s)): recovery reports %+v", cut, clean, k, ri)
		}
		if st, err := os.Stat(filepath.Join(dir, walName)); err != nil || st.Size() != int64(max(clean, fileHdrLen)) {
			t.Fatalf("cut %d: log is %d bytes after repair, want %d", cut, st.Size(), max(clean, fileHdrLen))
		}
	}
}

// TestFlippedByteDropsSuffix corrupts each byte of a valid log in turn:
// recovery yields the transactions before the damaged frame and nothing
// else — never a different heap, never a panic.
func TestFlippedByteDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	richStore(t, dir, 0)
	wal := readFile(t, dir, walName)
	bounds := frameBounds(t, wal)
	dumps := prefixDumps(t, dir, wal, bounds)
	for i := range wal {
		for _, mask := range []byte{0xff, 0x01, 0x80} {
			bad := bytes.Clone(wal)
			bad[i] ^= mask
			got, ri, err := recoverFiles(t, dir, bad, nil)
			if i < fileHdrLen {
				// A damaged file header fails the open, naming the log.
				if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, walName)) {
					t.Fatalf("byte %d ^ %#x (file header): %v, recovered %+v", i, mask, err, got)
				}
				continue
			}
			k := sort.SearchInts(bounds, i+1) - 1 // frames wholly before byte i
			if err != nil || !reflect.DeepEqual(got, dumps[k]) || !ri.TornTail || ri.TxApplied != k {
				t.Fatalf("byte %d ^ %#x (frame %d): %+v, %v; recovered\n got %+v\nwant %+v", i, mask, k, ri, err, got, dumps[k])
			}
		}
	}
}

// TestDamagedHeaderFailsOpen: a store file whose 8-byte header is
// damaged is not read as an empty or foreign log. Open fails with an
// error naming the file and leaves both files byte-identical, where
// reading a damaged log header as a header-less log used to recover
// nothing and then truncate every logged commit away. An empty or
// missing log still opens.
func TestDamagedHeaderFailsOpen(t *testing.T) {
	src := t.TempDir()
	richStore(t, src, 2)
	files := map[string][]byte{walName: readFile(t, src, walName), snapshotName: readFile(t, src, snapshotName)}
	for name := range files {
		for i := 0; i < fileHdrLen; i++ {
			for _, mask := range []byte{0xff, 0x01, 0x80} {
				dir := t.TempDir()
				for n, data := range files {
					if n == name {
						data = bytes.Clone(data)
						data[i] ^= mask
					}
					if err := os.WriteFile(filepath.Join(dir, n), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				before := map[string][]byte{walName: readFile(t, dir, walName), snapshotName: readFile(t, dir, snapshotName)}
				s, err := Open(dir)
				if err == nil {
					s.Close()
				}
				if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, name)) {
					t.Fatalf("%s byte %d ^ %#x: Open = %v, want an error naming the file", name, i, mask, err)
				}
				for n, data := range before {
					if !bytes.Equal(readFile(t, dir, n), data) {
						t.Fatalf("%s byte %d ^ %#x: the failed open changed %s", name, i, mask, n)
					}
				}
			}
		}
	}
	for _, wal := range [][]byte{{}, nil} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), files[snapshotName], 0o644); err != nil {
			t.Fatal(err)
		}
		if wal != nil {
			if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("wal.log empty=%v: %v", wal != nil, err)
		}
		if ri := s.Recovery(); !ri.SnapshotLoaded || ri.TxApplied != 0 || ri.TornTail {
			t.Fatalf("wal.log empty=%v: recovery %+v, want the snapshot alone", wal != nil, ri)
		}
		s.Close()
	}
}

// TestEmptyHeapCheckpoint: a checkpoint of a store whose every object is
// gone still restores the allocator (no OID reuse) and the feed head.
func TestEmptyHeapCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Create("acct", nil)
	if err := s.LogCommit(1, []OID{a.OID}, nil, []FiringRecord{{OID: a.OID, Class: "acct", Trigger: "T", Kind: "k"}}); err != nil {
		t.Fatal(err)
	}
	s.Delete(a.OID)
	if err := s.LogCommit(2, nil, []OID{a.OID}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(s)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ri := s2.Recovery(); !ri.SnapshotLoaded || ri.WALFrames != 0 {
		t.Fatalf("recovery %+v", ri)
	}
	if got := dumpStore(s2); !reflect.DeepEqual(got, want) || len(got.Objects) != 0 || got.FiringSeq != 1 {
		t.Fatalf("recovered\n got %+v\nwant %+v", got, want)
	}
	if b := s2.Create("acct", nil); b.OID <= a.OID {
		t.Fatalf("OID %d reused after an empty-heap checkpoint (deleted object was %d)", b.OID, a.OID)
	}
}

// TestFailedWALWriteIsSticky: after a partial write no later commit is
// acknowledged — it would sit behind the tear, where the next recovery
// cannot reach it — until the store is reopened and the tail repaired.
// The injected failure that leaves the file untouched does not stick.
func TestFailedWALWriteIsSticky(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New()
	s, err := OpenWith(dir, Options{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Create("acct", map[string]value.Value{"v": value.Int(0)})
	commit := func(s *Store, v int64) error {
		rec, _ := s.Get(r.OID)
		rec.SetField("v", value.Int(v))
		return s.LogCommit(uint64(v), []OID{r.OID}, nil, nil)
	}
	walSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if err := commit(s, 1); err != nil {
		t.Fatal(err)
	}
	reg.ArmNext(fault.WALWrite) // nothing reaches the file
	if err := commit(s, 2); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit 2: %v, want the injected failure", err)
	}
	if err := commit(s, 2); err != nil {
		t.Fatalf("commit after a failure that left the file intact: %v", err)
	}
	clean := walSize()
	reg.ArmNextTear(fault.WALWrite, 5)
	tornErr := commit(s, 3)
	if !errors.Is(tornErr, fault.ErrInjected) || walSize() != clean+5 {
		t.Fatalf("commit 3: %v, log grew by %d, want the injected tear after 5 bytes", tornErr, walSize()-clean)
	}
	if err := commit(s, 4); err != tornErr {
		t.Fatalf("commit 4 behind the tear: %v, want the write failure %v", err, tornErr)
	}
	if err := s.Checkpoint(); err != tornErr {
		t.Fatalf("checkpoint on a failed log: %v, want %v", err, tornErr)
	}
	if got := walSize(); got != clean+5 {
		t.Fatalf("log grew to %d behind the tear at %d", got, clean+5)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ri := s2.Recovery(); !ri.TornTail || ri.TornTailBytes != 5 || ri.TxApplied != 2 {
		t.Fatalf("recovery %+v, want commits 1 and 2 and a 5-byte torn tail", ri)
	}
	if rec, err := s2.Get(r.OID); err != nil || rec.Fields["v"].AsInt() != 2 {
		t.Fatalf("recovered %+v, %v; want v=2", rec, err)
	}
	if err := commit(s2, 5); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
}

// sealedLog wraps frameTx bodies into a log image with valid checksums.
func sealedLog(bodies ...[]byte) []byte {
	out := bytes.Clone(walMagic[:])
	for _, body := range bodies {
		out = appendFrame(out, frameTx, body)
	}
	return out
}

// TestDecodeDropsShadowField: a trigger slot of an earlier version's
// frame may carry a symbol history after its parameters (trigHasShadow);
// the decoder reads and drops it, keeping Active, State and Params, and
// the record re-encodes to the same frame without the flag or the
// history.
func TestDecodeDropsShadowField(t *testing.T) {
	s, _ := Open("")
	params := []value.Value{value.Int(9), value.Str("p")}
	e := &encoder{idx: map[string]int{}}
	var vals []byte
	for i := range params {
		vals = e.value(vals, &params[i])
	}
	uv := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	sv := func(vs ...int64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	body := func(flags byte, shadow []byte) []byte {
		return cat(uv(1, 2, 4), []byte("acct"), uv(4), []byte("Over"), // tx 1; names acct, Over
			uv(1, 7, 0, 0, 1, 1), []byte{flags}, sv(3), // object 7 of acct, no fields, trigger Over in state 3
			uv(uint64(len(params))), vals, shadow,
			uv(0, 0)) // no deletions, no firings
	}
	old := body(trigActive|trigHasParams|trigHasShadow, cat(uv(4), sv(1, 0, 3, 2)))
	tx, err := s.decodeTx(old)
	if err != nil || len(tx.recs) != 1 {
		t.Fatalf("decode: %v, %d record(s)", err, len(tx.recs))
	}
	got := tx.recs[0].Trigger("Over")
	if !got.Active || got.State != 3 || !slices.EqualFunc(got.Params(), params, value.Value.Equal) {
		t.Fatalf("decoded %+v params %v, want active in state 3 with %v", *got, got.Params(), params)
	}
	frame, err := e.tx(1, tx.recs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := body(trigActive|trigHasParams, nil); !bytes.Equal(frame[frameHdrLen+1:], want) {
		t.Fatalf("re-encoded\n% x\nwant\n% x", frame[frameHdrLen+1:], want)
	}
}

// TestDecodeBoundsCounts: a frame that passes its checksum but promises
// more items than its bytes could hold is refused before anything is
// sized from the count.
func TestDecodeBoundsCounts(t *testing.T) {
	const huge = 1 << 40
	uv := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	oneName := cat(uv(1, 1), []byte("c")) // table: ["c"]
	for name, body := range map[string][]byte{
		"strings":       uv(1, huge),
		"string length": uv(1, 1, huge),
		"records":       cat(uv(1), oneName, uv(huge)),
		"fields":        cat(uv(1), oneName, uv(1, 7, 0, huge)),
		"triggers":      cat(uv(1), oneName, uv(1, 7, 0, 0, huge)),
		"params":        cat(uv(1), oneName, uv(1, 7, 0, 0, 1, 0), []byte{trigHasParams, 0}, uv(huge)),
		"shadow":        cat(uv(1), oneName, uv(1, 7, 0, 0, 1, 0), []byte{trigHasShadow, 0}, uv(huge)),
		"value string":  cat(uv(1), oneName, uv(1, 7, 0, 1, 0), []byte{byte(value.KindString)}, uv(huge)),
		"deleted":       cat(uv(1), oneName, uv(0, huge)),
		"firings":       cat(uv(1), oneName, uv(0, 0, huge)),
	} {
		log := sealedLog(body)
		s, _ := Open("")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc, reason := s.scanWAL(log, func(*txImage) { t.Errorf("%s: frame applied", name) })
		runtime.ReadMemStats(&after)
		if sc.cleanLen != fileHdrLen || sc.tornBytes != int64(len(log)-fileHdrLen) ||
			!(strings.Contains(reason, "exceeds") || strings.Contains(reason, "promises")) {
			t.Errorf("%s: scan %+v, %q", name, sc, reason)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(log), got)
		}
	}
}

// TestValueRoundTrip: every kind comes back Equal, floats bit for bit,
// times with their instant and zone offset.
func TestValueRoundTrip(t *testing.T) {
	local := time.Date(2020, 6, 1, 12, 0, 0, 5, time.FixedZone("somewhere", -3*3600))
	vals := []value.Value{
		value.Null(), value.Int(0), value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(math.Inf(1)),
		value.Bool(false), value.Bool(true), value.Str(""), value.Str("héllo\x00"),
		value.Time(time.Time{}), value.Time(zoned), value.Time(zoned.UTC()), value.Time(local), value.Time(time.Unix(1<<40, 999999999)),
		value.ID(0), value.ID(math.MaxUint64),
	}
	s, _ := Open("")
	r := s.Create("c", map[string]value.Value{})
	r.Trigger("T").SetParams(vals)
	var enc encoder
	enc.idx = map[string]int{}
	frame, err := enc.tx(1, []*Record{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.decodeTx(frame[frameHdrLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	got := tx.recs[0].Trigger("T").Params()
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i, v := range vals {
		if renderValue(got[i]) != renderValue(v) || (!got[i].Equal(v) && !(v.Kind == value.KindFloat && math.IsNaN(v.AsFloat()))) {
			t.Errorf("value %d: %s came back as %s", i, renderValue(v), renderValue(got[i]))
		}
	}
	if _, err := enc.tx(1, []*Record{{Fields: map[string]value.Value{"x": {Kind: 42}}}}, nil, nil); err == nil {
		t.Error("a value of unknown kind encoded; recovery could not read that frame")
	}
}

// codecTimes are the shapes of time the format promises to keep — the
// instant to the nanosecond and the offset from UTC — whatever a Value
// holds in memory.
func codecTimes() map[string]time.Time {
	at := time.Date(2024, 2, 29, 23, 59, 58, 123456789, time.UTC)
	return map[string]time.Time{
		"utc":             at,
		"local":           at.In(time.Local),
		"whole hour":      at.In(time.FixedZone("CET", 3600)),
		"+05:45":          at.In(time.FixedZone("", 5*3600+45*60)),
		"odd seconds":     at.In(time.FixedZone("LMT", -(4*3600 + 56*60 + 2))),
		"fixed zero":      at.In(time.FixedZone("", 0)),
		"zero time":       {},
		"year 9999":       time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		"last nanosecond": time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -3600)),
		"monotonic":       time.Now(),
	}
}

// timeStore commits an object holding codecTimes into a fresh durable
// store in dir, before and after a checkpoint, so that both files carry
// them, and closes it.
func timeStore(t testing.TB, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]value.Value{}
	for name, at := range codecTimes() {
		fields[name] = value.Time(at)
	}
	r := s.Create("clock", fields)
	for _, step := range []func() error{
		func() error { return s.LogCommit(1, []OID{r.OID}, nil, nil) },
		s.Checkpoint,
		func() error { return s.LogCommit(2, []OID{r.OID}, nil, nil) },
		s.Close,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeBytesUnchanged: a time value encodes to the bytes the codec
// has written since PR 14, computed here from the time.Time itself, and
// decodes to a value that is ==, renders the same and re-encodes to the
// same bytes.
func TestTimeBytesUnchanged(t *testing.T) {
	for name, at := range codecTimes() {
		want := binary.AppendVarint([]byte{byte(value.KindTime)}, at.Unix())
		want = binary.AppendUvarint(want, uint64(at.Nanosecond()))
		if at.Location() == time.UTC {
			want = append(want, zoneUTC)
		} else {
			_, off := at.Zone()
			want = binary.AppendVarint(append(want, zoneFixed), int64(off))
		}
		var enc encoder
		v := value.Time(at)
		first := enc.value(nil, &v)
		if !bytes.Equal(first, want) {
			t.Errorf("%s: %v encodes to %x, want %x", name, at, first, want)
		}
		d := decoder{reader: reader{b: first}}
		back := d.value()
		if d.err != nil || len(d.b) != 0 || back != v || back.String() != v.String() || renderValue(back) != "time:"+at.Format(time.RFC3339Nano) {
			t.Errorf("%s: %s decoded to %s (err %v, %d bytes left)", name, renderValue(v), renderValue(back), d.err, len(d.b))
		}
		if again := enc.value(nil, &back); !bytes.Equal(again, first) {
			t.Errorf("%s: re-encoded to %x, was %x", name, again, first)
		}
	}
	// An offset no value can hold is a malformed frame, not another zone.
	far := binary.AppendVarint([]byte{byte(value.KindTime), 0, 0, zoneFixed}, value.MaxZoneOffset+1)
	if d := (decoder{reader: reader{b: far}}); d.value() != value.Null() || d.err == nil {
		t.Error("a zone offset past value.MaxZoneOffset decoded")
	}
	dir := t.TempDir()
	timeStore(t, dir)
	got, ri, err := recoverFiles(t, dir, readFile(t, dir, walName), readFile(t, dir, snapshotName))
	if err != nil || !ri.SnapshotLoaded || ri.TxApplied != 1 || len(got.Objects) != 1 || len(got.Objects[0].Fields) != len(codecTimes()) {
		t.Fatalf("time store recovered as %+v (%+v, %v)", got, ri, err)
	}
}

// commitShape builds the records and firings of one commit: n dirty
// objects of one class with eight activated triggers and one field, and
// the firings some of them caused.
func commitShape(n, firings int) ([]*Record, []FiringRecord) {
	s, _ := Open("")
	recs := make([]*Record, n)
	for i := range recs {
		r := s.Create("account", map[string]value.Value{"balance": value.Int(int64(1000 + i))})
		for j := 0; j < 8; j++ {
			*r.Trigger(fmt.Sprintf("Trig%d", j)) = TrigState{Active: true, State: int32((i + j) % 5)}
		}
		r.Trigger("Trig3").SetParams([]value.Value{value.Int(50), value.Int(10)})
		recs[i] = r
	}
	fs := make([]FiringRecord, firings)
	for i := range fs {
		fs[i] = FiringRecord{Seq: uint64(i + 1), TxID: 7, OID: recs[i%n].OID, Class: "account", Trigger: "Trig3", Kind: "after deposit", AtNs: int64(i)}
	}
	return recs, fs
}

// TestCommitEncodeAllocBudget: encoding a commit allocates nothing once
// the encoder's buffers have grown. (The encoder is held, not pooled:
// under -race sync.Pool drops items on purpose.)
func TestCommitEncodeAllocBudget(t *testing.T) {
	recs, firings := commitShape(128, 13)
	enc := &encoder{idx: map[string]int{}}
	encode := func() {
		if _, err := enc.tx(9, recs, []OID{4, 5}, firings); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Fatalf("encoding a 128-record / 13-firing commit allocates %.1f times, want 0", n)
	}
}

// BenchmarkEncodeCommit is the per-layer guard of the durable commit's
// encoding step, at the shapes bench/ times through LogCommit.
func BenchmarkEncodeCommit(b *testing.B) {
	for _, shape := range [][2]int{{1, 0}, {1, 1}, {256, 26}} {
		recs, firings := commitShape(shape[0], shape[1])
		b.Run(fmt.Sprintf("%d_%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := encoders.Get().(*encoder)
				frame, err := enc.tx(uint64(i), recs, nil, firings)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(frame)))
				encoders.Put(enc)
			}
		})
	}
}

// reseal recomputes the checksum of every frame of a file image whose
// length field fits, so that mutated payloads reach the decoder instead
// of dying at the checksum.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	for off := fileHdrLen; off+frameHdrLen <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n == 0 || n > len(out)-off-frameHdrLen {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+frameHdrLen:off+frameHdrLen+n], castagnoli))
		off += frameHdrLen + n
	}
	return out
}

// dumpTx is a decoded transaction's content.
func dumpTx(tx *txImage) any {
	recs := make([]objectDump, len(tx.recs))
	for i, r := range tx.recs {
		recs[i] = dumpRecord(r)
	}
	return []any{tx.txID, recs, append([]OID{}, tx.deleted...), append([]FiringRecord{}, tx.firings...)}
}

// valueBytes is what a value holds: its cell and, for a string, the bytes.
func valueBytes(v value.Value) int {
	n := int(unsafe.Sizeof(v))
	if v.Kind == value.KindString {
		n += len(v.AsString())
	}
	return n
}

// decodedSize estimates the memory a decoded transaction holds; a map
// slot is counted twice over for the table's spare capacity.
func decodedSize(tx *txImage) int {
	n := 64 + 8*len(tx.deleted)
	for _, r := range tx.recs {
		n += int(unsafe.Sizeof(*r)) + len(r.Class)
		for k, v := range r.Fields {
			n += 2*(int(unsafe.Sizeof(k))+valueBytes(v)) + len(k)
		}
		for i := range r.Trigs {
			if t := &r.Trigs[i]; !t.IsZero() {
				n += int(unsafe.Sizeof(*t) + unsafe.Sizeof(trigExt{}))
				for _, p := range t.Params() {
					n += valueBytes(p)
				}
			}
		}
	}
	for _, f := range tx.firings {
		n += 96 + len(f.Class) + len(f.Trigger) + len(f.Kind)
	}
	return n
}

// checkLogImage is the WAL fuzz property on one log image: the scan
// accounts for every byte, what it decodes is no larger than a constant
// times the input, and decode → encode → decode is a fixed point on
// content.
func checkLogImage(t *testing.T, data []byte) {
	if f, err := formatOf(walName, data, walMagic); err != nil || f != formatCurrent {
		return
	}
	s, _ := Open("")
	var txs []txImage
	sc, _ := s.scanWAL(data, func(tx *txImage) { txs = append(txs, *tx) })
	if sc.cleanLen+sc.tornBytes != int64(len(data)) || sc.cleanLen < fileHdrLen {
		t.Fatalf("scan accounts for %d+%d of %d bytes", sc.cleanLen, sc.tornBytes, len(data))
	}
	var first []any
	size := 0
	out := bytes.Clone(walMagic[:])
	var enc encoder
	enc.idx = map[string]int{}
	for i := range txs {
		first = append(first, dumpTx(&txs[i]))
		size += decodedSize(&txs[i])
		frame, err := enc.tx(txs[i].txID, txs[i].recs, txs[i].deleted, txs[i].firings)
		if err != nil {
			t.Fatalf("decoded transaction does not encode: %v", err)
		}
		out = append(out, frame...)
	}
	if limit := 256 * (64 + len(data)); size > limit {
		t.Fatalf("%d input bytes decoded to about %d (limit %d)", len(data), size, limit)
	}
	var again []any
	s2, _ := Open("")
	if sc, reason := s2.scanWAL(out, func(tx *txImage) { again = append(again, dumpTx(tx)) }); sc.tornBytes != 0 {
		t.Fatalf("re-encoded log does not decode cleanly: %s", reason)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("decode → encode → decode is not a fixed point:\n first %+v\n again %+v", first, again)
	}
}

// FuzzWALFrames: arbitrary bytes never panic the log decoder, with the
// stored checksums and with correct ones (see checkLogImage).
func FuzzWALFrames(f *testing.F) {
	dir := f.TempDir()
	richStore(f, dir, 2)
	seed := readFile(f, dir, walName)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(append(bytes.Clone(walMagic[:]), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5))
	times := f.TempDir()
	timeStore(f, times)
	f.Add(readFile(f, times, walName))
	logs, _ := farOIDImages()
	for _, log := range logs {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLogImage(t, data)
		checkLogImage(t, reseal(data))
	})
}

// checkSnapshotImage is the snapshot fuzz property: an image the loader
// accepts, the writer writes back and the loader reads back unchanged.
func checkSnapshotImage(t *testing.T, data []byte) {
	if f, err := formatOf(snapshotName, data, snapMagic); err != nil || f != formatCurrent {
		return
	}
	load := func(data []byte) (storeDump, *Store, error) {
		s, _ := Open("")
		snap, err := s.loadSnapshot(data)
		if err != nil {
			return storeDump{}, nil, err
		}
		s.nextOID.Store(max(s.nextOID.Load(), uint64(snap.next)))
		s.egress.load(snap.firingSeq)
		s.seedEpochView() // as Open does: the writer streams the committed view
		return dumpStore(s), s, nil
	}
	first, s, err := load(data)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := s.streamSnapshot(w); err != nil {
		t.Fatalf("loaded snapshot does not encode: %v", err)
	}
	w.Flush()
	again, _, err := load(buf.Bytes())
	if err != nil {
		t.Fatalf("re-encoded snapshot does not load: %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("load → write → load is not a fixed point:\n first %+v\n again %+v", first, again)
	}
}

// FuzzSnapshot is FuzzWALFrames for the checkpoint file.
func FuzzSnapshot(f *testing.F) {
	dir := f.TempDir()
	richStore(f, dir, 2)
	seed := readFile(f, dir, snapshotName)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	times := f.TempDir()
	timeStore(f, times)
	f.Add(readFile(f, times, snapshotName))
	_, snaps := farOIDImages()
	for _, snap := range snaps {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotImage(t, data)
		checkSnapshotImage(t, reseal(data))
	})
}

// TestSnapshotRejectsDamage: unlike the log, a snapshot has no torn
// state to repair — any frame that fails, a missing trailer or totals
// that disagree fail the open instead of loading part of a heap.
func TestSnapshotRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	want := richStore(t, dir, 4)
	snap := readFile(t, dir, snapshotName)
	if got, ri, err := recoverFiles(t, dir, nil, snap); err != nil || !ri.SnapshotLoaded || !reflect.DeepEqual(got, want) {
		t.Fatalf("intact snapshot: %v %+v\n got %+v\nwant %+v", err, ri, got, want)
	}
	for cut := 1; cut < len(snap); cut++ {
		if _, _, err := recoverFiles(t, dir, nil, snap[:cut]); err == nil {
			t.Fatalf("snapshot cut to %d of %d bytes opened", cut, len(snap))
		}
	}
	for i := range snap {
		bad := bytes.Clone(snap)
		bad[i] ^= 0x40
		if _, _, err := recoverFiles(t, dir, nil, bad); err == nil {
			t.Fatalf("snapshot with byte %d flipped opened", i)
		}
	}
	// Valid frames, wrong totals.
	bounds := frameBounds(t, snap)
	noChunk := append(bytes.Clone(snap[:bounds[1]]), snap[bounds[2]:]...)
	if _, _, err := recoverFiles(t, dir, nil, noChunk); err == nil || !strings.Contains(err.Error(), "trailer counts") {
		t.Fatalf("snapshot missing a chunk: %v", err)
	}
}
