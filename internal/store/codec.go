package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"time"

	"ode/internal/value"
)

// The on-disk format of both store files (DESIGN.md §17). A file is an
// 8-byte header — magic and format version — followed by frames:
//
//	frame   = len u32le | crc u32le | payload        len = |payload| ≥ 1
//	                                                  crc = CRC-32C(payload)
//	payload = kind byte | body
//
// A transaction is one frame (frameTx): its id, a string table naming
// every class, field, trigger and happening kind the frame mentions once,
// the dirty records, the deleted OIDs and the firings, every name a table
// index. The checksum is the atomicity bracket: recovery applies a frame
// iff it is complete and verifies, so a transaction is on disk entirely
// or not at all and no begin/commit markers exist. A frame decodes alone —
// no earlier frame defines anything it uses — so appending after reopen
// needs no encoder state. Persistence binds trigger state by name, never
// by slot: slots are one run's assignment (layout.go).
//
// The snapshot is the same frames: a frameSnapHeader, then frameTx chunks
// (transaction id 0) carrying the heap and the feed, then a
// frameSnapTrailer whose totals must match what the chunks held.
const (
	frameTx          byte = 1
	frameSnapHeader  byte = 2
	frameSnapTrailer byte = 3

	fileHdrLen  = 8
	frameHdrLen = 8
)

var (
	walMagic  = [fileHdrLen]byte{'O', 'D', 'E', 'w', 'a', 'l', 0, 1}
	snapMagic = [fileHdrLen]byte{'O', 'D', 'E', 's', 'n', 'p', 0, 1}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// fileFormat classifies a store file by its first bytes.
type fileFormat int

const (
	formatEmpty      fileFormat = iota // no bytes: a new or just-reset file
	formatCurrent                      // starts with magic
	formatTornHeader                   // a proper prefix of magic: crash while the header was written
)

// formatOf classifies data, the contents of the store file path. Any
// other start is refused with an error naming the file, before anything
// is read or repaired: a damaged header is not an empty log.
func formatOf(path string, data []byte, magic [fileHdrLen]byte) (fileFormat, error) {
	switch {
	case len(data) == 0:
		return formatEmpty, nil
	case len(data) < fileHdrLen && string(data) == string(magic[:len(data)]):
		return formatTornHeader, nil
	case len(data) >= fileHdrLen && string(data[:fileHdrLen-1]) == string(magic[:fileHdrLen-1]):
		if data[fileHdrLen-1] != magic[fileHdrLen-1] {
			return 0, fmt.Errorf("store: %s: file format version %d, this build reads %d", path, data[fileHdrLen-1], magic[fileHdrLen-1])
		}
		return formatCurrent, nil
	}
	return 0, fmt.Errorf("store: %s: not a store file (header % x, want % x)", path, data[:min(len(data), fileHdrLen)], magic)
}

// txImage is one decoded transaction (or snapshot chunk): what a frameTx
// carries, records already in their in-memory form.
type txImage struct {
	txID    uint64
	recs    []*Record
	deleted []OID
	firings []FiringRecord
}

// Value payloads by kind tag (the tag is the value.Kind):
//
//	null    —
//	int     varint
//	float   8 bytes, IEEE-754 bits little-endian
//	bool    1 byte, 0 or 1
//	string  uvarint length, bytes
//	time    varint Unix seconds, uvarint nanoseconds (< 1e9), zone byte:
//	        0 = UTC, 1 = fixed offset, followed by varint seconds east
//	id      uvarint
//
// A time keeps its instant and its zone offset, not its zone name or
// monotonic reading: Value.Equal and the rendered offset survive a round
// trip, and a decoded value re-encodes to the same bytes.
const (
	zoneUTC   byte = 0
	zoneFixed byte = 1
)

// Trigger-slot flags.
const (
	trigActive byte = 1 << iota
	trigHasParams
	// trigHasShadow marks a symbol history (a count, then the symbols as
	// varints) that frames of earlier versions carried after the
	// parameters; it is read and dropped, and never written.
	trigHasShadow
	trigFlagsMask = trigActive | trigHasParams | trigHasShadow
)

// encoder builds frames in buffers it keeps between uses. The body is
// encoded first, interning names as it meets them, and the frame is then
// assembled around the finished table; a frame it returned is valid until
// the encoder is used again.
type encoder struct {
	out  []byte         // the assembled frame
	body []byte         // records, deletions, firings
	tab  []byte         // string table entries, in index order
	idx  map[string]int // name → table index
	err  error          // first thing the format cannot carry
	recs []*Record      // logCommit's scratch: the images of one commit
	keys []string       // record's scratch: one record's field names
	// sorted makes record write fields in name order, so a checkpoint of
	// one state is always the same bytes; commit frames skip the sort.
	sorted bool

	// A one-entry cache in front of idx: consecutive records of a batch
	// share their class layout, and so their trigger names by slot.
	layout  *Layout
	slotIdx []int32 // slot → table index + 1 for layout; 0 = not interned yet
}

// encoders pools encoders across commits: logCommit runs concurrently
// under walMu.RLock, and a steady-state commit encodes without allocating.
var encoders = sync.Pool{New: func() any { return &encoder{idx: map[string]int{}} }}

func (e *encoder) reset() {
	e.body, e.tab, e.err = e.body[:0], e.tab[:0], nil
	clear(e.idx)
	e.layout = nil
}

func (e *encoder) index(name string) int {
	i, ok := e.idx[name]
	if !ok {
		i = len(e.idx)
		e.idx[name] = i
		e.tab = binary.AppendUvarint(e.tab, uint64(len(name)))
		e.tab = append(e.tab, name...)
	}
	return i
}

func (e *encoder) trigIndex(l *Layout, slot int) int {
	if l != e.layout {
		e.layout, e.slotIdx = l, e.slotIdx[:0]
	}
	if old := len(e.slotIdx); slot >= old {
		e.slotIdx = slices.Grow(e.slotIdx, slot+1-old)[:slot+1]
		clear(e.slotIdx[old:])
	}
	if e.slotIdx[slot] == 0 {
		e.slotIdx[slot] = int32(e.index(l.Name(slot))) + 1
	}
	return int(e.slotIdx[slot]) - 1
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("store: encode: "+format, args...)
	}
}

// tx encodes one transaction as a frame. The records must not change
// while it runs: they are immutable images or live records whose locks
// the caller holds. It fails only on what the format cannot carry — a
// value of no known kind, a negative partition, a frame past 4 GiB —
// which must fail the commit, not poison the log for recovery.
func (e *encoder) tx(txID uint64, recs []*Record, deleted []OID, firings []FiringRecord) ([]byte, error) {
	e.reset()
	b := binary.AppendUvarint(e.body, uint64(len(recs)))
	for _, r := range recs {
		b = e.record(b, r)
	}
	b = binary.AppendUvarint(b, uint64(len(deleted)))
	for _, oid := range deleted {
		b = binary.AppendUvarint(b, uint64(oid))
	}
	b = binary.AppendUvarint(b, uint64(len(firings)))
	for i := range firings {
		b = e.firing(b, &firings[i])
	}
	e.body = b

	out := append(e.out[:0], make([]byte, frameHdrLen)...)
	out = append(out, frameTx)
	out = binary.AppendUvarint(out, txID)
	out = binary.AppendUvarint(out, uint64(len(e.idx)))
	out = append(out, e.tab...)
	out = append(out, b...)
	e.out = out
	if len(out)-frameHdrLen > math.MaxUint32 {
		e.fail("transaction %d needs a %d-byte frame, the limit is 4 GiB", txID, len(out)-frameHdrLen)
	}
	if e.err != nil {
		return nil, e.err
	}
	return seal(out), nil
}

// seal fills in the header of a frame built after frameHdrLen spare bytes.
func seal(frame []byte) []byte {
	payload := frame[frameHdrLen:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

// appendFrame appends a sealed frame of the given kind and body.
func appendFrame(out []byte, kind byte, body []byte) []byte {
	start := len(out)
	out = append(out, make([]byte, frameHdrLen)...)
	out = append(out, kind)
	out = append(out, body...)
	seal(out[start:])
	return out
}

func (e *encoder) record(b []byte, r *Record) []byte {
	b = binary.AppendUvarint(b, uint64(r.OID))
	b = binary.AppendUvarint(b, uint64(e.index(r.Class)))
	b = binary.AppendUvarint(b, uint64(len(r.Fields)))
	if e.sorted {
		keys := e.keys[:0]
		for name := range r.Fields {
			keys = append(keys, name)
		}
		slices.Sort(keys)
		for _, name := range keys {
			v := r.Fields[name]
			b = binary.AppendUvarint(b, uint64(e.index(name)))
			b = e.value(b, &v)
		}
		e.keys = keys
	} else {
		for name, v := range r.Fields {
			b = binary.AppendUvarint(b, uint64(e.index(name)))
			b = e.value(b, &v)
		}
	}
	n := 0
	for i := range r.Trigs {
		if !r.Trigs[i].IsZero() {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := range r.Trigs {
		t := &r.Trigs[i]
		if t.IsZero() {
			continue // never activated: absent, as it always was
		}
		b = binary.AppendUvarint(b, uint64(e.trigIndex(r.layout, i)))
		var flags byte
		if t.Active {
			flags |= trigActive
		}
		params := t.Params()
		if len(params) > 0 {
			flags |= trigHasParams
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(t.State))
		if len(params) > 0 {
			b = binary.AppendUvarint(b, uint64(len(params)))
			for j := range params {
				b = e.value(b, &params[j])
			}
		}
	}
	return b
}

func (e *encoder) value(b []byte, v *value.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case value.KindNull:
	case value.KindInt:
		b = binary.AppendVarint(b, v.AsInt())
	case value.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case value.KindBool:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case value.KindString:
		s := v.AsString()
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	case value.KindTime:
		t := v.AsTime()
		b = binary.AppendVarint(b, t.Unix())
		b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
		if t.Location() == time.UTC {
			b = append(b, zoneUTC)
		} else {
			_, off := t.Zone()
			b = append(b, zoneFixed)
			b = binary.AppendVarint(b, int64(off))
		}
	case value.KindID:
		b = binary.AppendUvarint(b, v.AsID())
	default:
		e.fail("value of unknown kind %d", int(v.Kind))
	}
	return b
}

func (e *encoder) firing(b []byte, f *FiringRecord) []byte {
	if f.Part < 0 || f.Part > math.MaxInt32 {
		e.fail("firing %d carries partition %d", f.Seq, f.Part)
	}
	b = binary.AppendUvarint(b, f.Seq)
	b = binary.AppendUvarint(b, f.TxID)
	b = binary.AppendUvarint(b, uint64(f.OID))
	b = binary.AppendUvarint(b, uint64(f.Part))
	b = binary.AppendUvarint(b, uint64(e.index(f.Class)))
	b = binary.AppendUvarint(b, uint64(e.index(f.Trigger)))
	b = binary.AppendUvarint(b, uint64(e.index(f.Kind)))
	return binary.AppendVarint(b, f.AtNs)
}

// Minimum encoded sizes, the divisors of the bounds rule (reader.count).
const (
	minString = 1 // length
	minRecord = 4 // OID, class, field count, trigger count
	minField  = 2 // name, kind tag
	minTrig   = 3 // name, flags, state
	minValue  = 1 // kind tag
	minVarint = 1
	minFiring = 8 // Seq, TxID, OID, Part, Class, Trigger, Kind, AtNs
)

var errCorrupt = errors.New("store: malformed frame payload")

// reader consumes a payload. The first malformed item poisons it: every
// later read returns zero and every later count is zero, so decoding
// code checks err once, at the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail("missing byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("item promises %d bytes, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// count reads an item count and enforces the bounds rule: a count is
// believed only if the bytes that remain could hold that many items of
// at least min bytes each. Every slice and map the decoder makes is sized
// by a count that passed here, so what decoding allocates is bounded by a
// constant times the input's length however the counts were corrupted.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count %d exceeds what %d remaining byte(s) can hold", n, len(r.b))
		return 0
	}
	return int(n)
}

// decoder turns a frameTx body into a txImage, interning trigger names in
// the store's class layouts. The caches mirror the encoder's: one layout
// lookup per run of same-class records, one Intern per trigger name.
type decoder struct {
	reader
	s     *Store
	names []string

	classIdx uint64
	layout   *Layout
	slotOf   []int32 // table index → slot + 1 in layout; 0 = not resolved yet
}

// decodeTx decodes the body of a frameTx (the payload after its kind
// byte) whole: on error nothing of the frame is to be applied.
func (s *Store) decodeTx(body []byte) (txImage, error) {
	d := decoder{reader: reader{b: body}, s: s}
	tx := txImage{txID: d.uvarint()}
	if n := d.count(minString); n > 0 {
		d.names = make([]string, n)
		d.slotOf = make([]int32, n)
		for i := range d.names {
			d.names[i] = string(d.take(d.uvarint()))
		}
	}
	if n := d.count(minRecord); n > 0 {
		tx.recs = make([]*Record, n)
		for i := range tx.recs {
			tx.recs[i] = d.record()
		}
	}
	if n := d.count(minVarint); n > 0 {
		tx.deleted = make([]OID, n)
		for i := range tx.deleted {
			tx.deleted[i] = OID(d.uvarint())
		}
	}
	if n := d.count(minFiring); n > 0 {
		tx.firings = make([]FiringRecord, n)
		for i := range tx.firings {
			d.firing(&tx.firings[i])
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing byte(s)", len(d.b))
	}
	return tx, d.err
}

func (d *decoder) name(i uint64) string {
	if i >= uint64(len(d.names)) {
		d.fail("name index %d of a %d-entry table", i, len(d.names))
		return ""
	}
	return d.names[i]
}

func (d *decoder) record() *Record {
	oid := OID(d.uvarint())
	ci := d.uvarint()
	class := d.name(ci)
	if d.err != nil {
		return nil
	}
	if d.layout == nil || ci != d.classIdx {
		d.classIdx, d.layout = ci, d.s.Layout(class)
		clear(d.slotOf)
	}
	n := d.count(minField)
	fields := make(map[string]value.Value, n)
	for ; n > 0; n-- {
		name := d.name(d.uvarint())
		fields[name] = d.value()
	}
	r := &Record{OID: oid, Class: class, layout: d.layout, Fields: fields}
	for n = d.count(minTrig); n > 0; n-- {
		ni := d.uvarint()
		name := d.name(ni)
		flags := d.byte()
		state := d.varint()
		if flags&^trigFlagsMask != 0 {
			d.fail("trigger flags %#x", flags)
		}
		if state != int64(int32(state)) {
			d.fail("trigger state %d", state)
		}
		var params []value.Value
		if flags&trigHasParams != 0 {
			if k := d.count(minValue); k > 0 {
				params = make([]value.Value, k)
				for j := range params {
					params[j] = d.value()
				}
			}
		}
		if flags&trigHasShadow != 0 {
			for k := d.count(minVarint); k > 0; k-- {
				d.varint()
			}
		}
		t := TrigState{Active: flags&trigActive != 0, State: int32(state), ext: newExt(params)}
		if d.err != nil {
			return nil
		}
		if d.slotOf[ni] == 0 {
			d.slotOf[ni] = int32(d.layout.Intern(name)) + 1
		}
		slot := int(d.slotOf[ni]) - 1
		if slot >= len(r.Trigs) {
			r.grow(d.layout.Len()) // once per record, except while the layout is still learning names
		}
		r.Trigs[slot] = t
	}
	return r
}

func (d *decoder) value() value.Value {
	switch k := value.Kind(d.byte()); k {
	case value.KindNull:
		return value.Null()
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindFloat:
		if b := d.take(8); b != nil {
			return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case value.KindBool:
		switch d.byte() {
		case 0:
			return value.Bool(false)
		case 1:
			return value.Bool(true)
		}
		d.fail("bool byte")
	case value.KindString:
		return value.Str(string(d.take(d.uvarint())))
	case value.KindTime:
		sec, ns := d.varint(), d.uvarint()
		if ns >= 1e9 {
			d.fail("time carries %d nanoseconds", ns)
		}
		t := time.Unix(sec, int64(ns))
		switch d.byte() {
		case zoneUTC:
			return value.Time(t.UTC())
		case zoneFixed:
			off := d.varint()
			if off < -value.MaxZoneOffset || off > value.MaxZoneOffset {
				d.fail("zone offset %d", off)
				break
			}
			return value.Time(t.In(time.FixedZone("", int(off))))
		}
		d.fail("time zone byte")
	case value.KindID:
		return value.ID(d.uvarint())
	default:
		d.fail("value kind tag %d", int(k))
	}
	return value.Null()
}

func (d *decoder) firing(f *FiringRecord) {
	f.Seq = d.uvarint()
	f.TxID = d.uvarint()
	f.OID = OID(d.uvarint())
	part := d.uvarint()
	if part > math.MaxInt32 {
		d.fail("implausible partition %d", part)
	}
	f.Part = int(part)
	f.Class = d.name(d.uvarint())
	f.Trigger = d.name(d.uvarint())
	f.Kind = d.name(d.uvarint())
	f.AtNs = d.varint()
}

// scanFrames walks the frames of a file image after its header and hands
// fn each payload that is complete and passes its checksum. It stops at
// the first frame that is short, empty or fails its checksum, or that fn
// rejects, and returns how many bytes of data the accepted frames span
// and, if that is not all of them, why it stopped.
func scanFrames(data []byte, fn func(payload []byte) error) (clean int, reason string) {
	for clean < len(data) {
		rest := data[clean:]
		if len(rest) < frameHdrLen {
			return clean, fmt.Sprintf("%d-byte frame-header fragment", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 {
			return clean, "frame of length 0"
		}
		if uint64(len(rest)-frameHdrLen) < uint64(n) {
			return clean, fmt.Sprintf("frame promises %d payload bytes, only %d present", n, len(rest)-frameHdrLen)
		}
		payload := rest[frameHdrLen : frameHdrLen+int(n)]
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(rest[4:]); got != want {
			return clean, fmt.Sprintf("checksum mismatch (got %08x, frame says %08x)", got, want)
		}
		if err := fn(payload); err != nil {
			return clean, err.Error()
		}
		clean += frameHdrLen + int(n)
	}
	return clean, ""
}
