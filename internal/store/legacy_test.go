package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

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
		return &wireRecord{OID: 1, Class: "x", Fields: map[string]value.Value{"v": value.Int(v)},
			Triggers: map[string]*wireTrig{"T": {Active: true, State: int(v), Dense: []value.Value{value.Int(v)}}}}
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
		if err != nil || r.Fields["v"].AsInt() != 3 || r.Trigger("T").State != 3 || len(r.Trigger("T").Params) != 1 || r.Trigger("T").Params[0].AsInt() != 3 {
			t.Fatalf("open %d: recovered %+v, %v; want the third committed put", pass, r, err)
		}
		s.Close()
	}
}
