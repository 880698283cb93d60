package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ode/internal/value"
)

// legacyFrames encodes frames the way PR 13 and earlier appended them:
// a length prefix and an independent gob value each. Test-only — the
// store itself has no gob encoder left.
func legacyFrames(t *testing.T, frames ...frame) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, fr := range frames {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(&fr); err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
		out.Write(hdr[:])
		out.Write(body.Bytes())
	}
	return out.Bytes()
}

// TestLegacyUncommittedFramesIgnored: in a legacy log the begin/commit
// markers are the atomicity bracket — complete frames of a transaction
// whose commit marker never made it are not applied — a transaction id
// reused after a restart is a new transaction, and opening rewrites the
// log in the current format.
func TestLegacyUncommittedFramesIgnored(t *testing.T) {
	dir := t.TempDir()
	rec := func(v int64) *wireRecord {
		return &wireRecord{OID: 1, Class: "x", Fields: map[string]wireValue{"v": {Kind: int(value.KindInt), I: v}},
			Triggers: map[string]*wireTrig{"T": {Active: true, State: int(v), Dense: []wireValue{{Kind: int(value.KindInt), I: v}}}}}
	}
	log := legacyFrames(t,
		frame{Op: opBegin, TxID: 1}, frame{Op: opPut, TxID: 1, Rec: rec(1)}, frame{Op: opCommit, TxID: 1},
		frame{Op: opBegin, TxID: 2}, frame{Op: opPut, TxID: 2, Rec: rec(2)}, frame{Op: opCommit, TxID: 2},
		frame{Op: opBegin, TxID: 1}, frame{Op: opPut, TxID: 1, Rec: rec(3)}, frame{Op: opCommit, TxID: 1},
		frame{Op: opBegin, TxID: 4}, frame{Op: opPut, TxID: 4, Rec: rec(999)})
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	for pass, wantFrames := range []int{11, 0} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ri := s.Recovery(); ri.WALFrames != wantFrames || ri.TornTail || s.legacy != (pass == 0) {
			t.Fatalf("open %d: legacy=%v %+v", pass, s.legacy, ri)
		}
		r, err := s.Get(1)
		if err != nil || r.Fields["v"].AsInt() != 3 || r.Trigger("T").State != 3 || len(r.Trigger("T").Params()) != 1 || r.Trigger("T").Params()[0].AsInt() != 3 {
			t.Fatalf("open %d: recovered %+v, %v; want the third committed put", pass, r, err)
		}
		s.Close()
	}
}

// TestLegacyValueKinds: what gob wrote from the value type of PR 13 and
// earlier — one exported field per payload, rebuilt here — decodes
// through wireValue into the same value of every kind.
func TestLegacyValueKinds(t *testing.T) {
	type oldKind int
	type oldValue struct {
		Kind oldKind
		I    int64
		F    float64
		B    bool
		S    string
		T    time.Time
	}
	old := map[string]oldValue{
		"null": {}, "int": {Kind: 1, I: -5}, "float": {Kind: 2, F: 3.25}, "bool": {Kind: 3, B: true},
		"string": {Kind: 4, S: "hello"}, "time": {Kind: 5, T: zoned}, "utc": {Kind: 5, T: zoned.UTC()}, "id": {Kind: 6, I: 77},
	}
	want := map[string]value.Value{
		"null": value.Null(), "int": value.Int(-5), "float": value.Float(3.25), "bool": value.Bool(true),
		"string": value.Str("hello"), "time": value.Time(zoned), "utc": value.Time(zoned.UTC()), "id": value.ID(77),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var wire map[string]wireValue
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(wire), len(want))
	}
	for name, w := range wire {
		if got := w.value(); got != want[name] {
			t.Errorf("%s: decoded as %s, want %s", name, renderValue(got), renderValue(want[name]))
		}
	}
}
