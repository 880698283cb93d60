package egress_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/egress"
	"ode/internal/store"
)

// FuzzRecordCodec fuzzes the egress record codec from both ends:
// structured inputs must encode/decode round-trip exactly (with every
// proper prefix of the frame rejected as a torn write), and arbitrary
// bytes must never panic, never allocate unboundedly, and — when they
// do decode — re-encode canonically to the consumed frame.
func FuzzRecordCodec(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint64(42), uint32(0), int64(12345), "account", "Big", "after withdraw", []byte{})
	f.Add(uint64(1)<<63, uint64(0), ^uint64(0), uint32(1<<20), int64(-9), "日本", "", "k", []byte{0, 0, 0, 0})
	f.Add(uint64(9), uint64(9), uint64(9), uint32(9), int64(9), "c", "t", "k",
		egress.AppendRecord(nil, store.FiringRecord{Seq: 3, Class: "x", Trigger: "y", Kind: "z"}))

	f.Fuzz(func(t *testing.T, seq, txid, oid uint64, part uint32, atns int64, class, trigger, kind string, raw []byte) {
		rec := store.FiringRecord{
			Seq:     seq,
			TxID:    txid,
			OID:     store.OID(oid),
			Part:    int(part & 0x7fffffff), // decoder rejects partitions past MaxInt32
			AtNs:    atns,
			Class:   class,
			Trigger: trigger,
			Kind:    kind,
		}
		buf := egress.AppendRecord(nil, rec)
		got, n, err := egress.DecodeRecord(buf)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if got != rec {
			t.Fatalf("round trip: %+v != %+v", got, rec)
		}
		// A torn write is any proper prefix: it must be rejected, and
		// past the length header the error must be ErrTruncated so the
		// cursor/feed readers know to discard rather than fail.
		for cut := 0; cut < len(buf); cut++ {
			_, _, perr := egress.DecodeRecord(buf[:cut])
			if perr == nil {
				t.Fatalf("prefix of %d/%d bytes decoded", cut, len(buf))
			}
			if cut >= 4 && !errors.Is(perr, egress.ErrTruncated) {
				t.Fatalf("prefix of %d bytes: %v, want ErrTruncated", cut, perr)
			}
		}

		// Arbitrary bytes: must not panic; a successful decode must be
		// canonical (re-encoding reproduces the consumed frame exactly).
		if rec2, n2, err2 := egress.DecodeRecord(raw); err2 == nil {
			if n2 <= 0 || n2 > len(raw) {
				t.Fatalf("decode of raw input consumed %d of %d bytes", n2, len(raw))
			}
			if re := egress.AppendRecord(nil, rec2); !bytes.Equal(re, raw[:n2]) {
				t.Fatalf("non-canonical frame: decoded %+v, re-encodes to %x, input was %x", rec2, re, raw[:n2])
			}
		}
	})
}

// FuzzCursorFile feeds arbitrary bytes to OpenCursor as the cursor
// file. It must never panic or fail; it keeps the clean prefix — the
// records DecodeRecord accepts one after another from the start —
// truncates the file to it, and Last is the last of those records. A
// Save then lands after the prefix, and a reopen returns the saved
// record.
func FuzzCursorFile(f *testing.F) {
	a := store.FiringRecord{Seq: 3, TxID: 9, OID: 4, Part: 1, Class: "account", Trigger: "Big", Kind: "after withdraw", AtNs: 77}
	b := store.FiringRecord{Seq: 5, TxID: 11, OID: 6, Class: "account", Trigger: "Pair", Kind: "after deposit", AtNs: -1}
	two := egress.AppendRecord(egress.AppendRecord(nil, a), b)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(bytes.Clone(two), 0xff, 0, 0, 0))
	f.Add(append([]byte{1, 0, 0, 0, 0}, two...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cursor")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		clean, want, have := 0, store.FiringRecord{}, false
		for clean < len(data) {
			r, n, err := egress.DecodeRecord(data[clean:])
			if err != nil {
				break
			}
			clean, want, have = clean+n, r, true
		}
		c, err := egress.OpenCursor(path, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got, ok := c.Last(); ok != have || got != want {
			t.Fatalf("Last() = %+v, %v; the clean prefix ends with %+v, %v", got, ok, want, have)
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, data[:clean]) {
			t.Fatalf("file holds %d bytes after open, clean prefix is %d (%v)", len(kept), clean, err)
		}
		saved := store.FiringRecord{Seq: want.Seq + 1, Part: 2, Class: "c", Trigger: "t", Kind: "k"}
		if err := c.Save(saved); err != nil {
			t.Fatalf("save: %v", err)
		}
		c.Close()
		c, err = egress.OpenCursor(path, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer c.Close()
		if got, ok := c.Last(); !ok || got != saved {
			t.Fatalf("reopened Last() = %+v, %v, saved %+v", got, ok, saved)
		}
	})
}
