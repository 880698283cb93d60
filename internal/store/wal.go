package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"ode/internal/fault"
	"ode/internal/value"
)

// WAL frame operations.
const (
	opBegin byte = iota + 1
	opPut
	opDelete
	opCommit
	// opPutN carries every dirty record of one transaction in a single
	// frame (frame.Recs). Batch commits use it so a transaction that
	// touched N objects appends one record frame instead of N — one gob
	// header, one length prefix — and a torn tail can only lose the
	// whole record set, never a prefix of it.
	opPutN
	// opFirings carries the trigger-firing records captured by one
	// transaction (frame.Firings), appended between the transaction's
	// record frames and its opCommit. Riding the same commit batch makes
	// the firings exactly as durable as the transaction itself: a crash
	// either preserves both or neither.
	opFirings
)

// frame is one WAL record. Frames are length-prefixed independent gob
// blobs, so a torn final frame is detected and discarded on recovery
// and appending after reopen needs no encoder state.
type frame struct {
	Op      byte
	TxID    uint64
	OID     OID
	Rec     *wireRecord
	Recs    []*wireRecord  // opPutN only; absent (nil) in all other frames
	Firings []FiringRecord // opFirings only; absent (nil) in all other frames
}

// wireRecord and wireTrig are the gob shape of a record in WAL frames
// and snapshots: trigger state keyed by name, so what a directory holds
// does not depend on any run's slot assignment, and unchanged since
// before records had slots — gob matches fields by name, so directories
// written through the old exported types decode into these. Records are
// converted at the codec boundary (wireBuf.of, Store.fromWire) and
// never-activated slots are simply absent from the map.
type wireRecord struct {
	OID      OID
	Class    string
	Fields   map[string]value.Value
	Triggers map[string]*wireTrig
}

type wireTrig struct {
	Active bool
	State  int
	// Params is the name-keyed copy of Dense that earlier versions wrote
	// next to it. The store cannot name parameters, so it is no longer
	// written, and read only to refuse a log old enough to lack Dense.
	Params map[string]value.Value
	Dense  []value.Value
	Shadow []int
}

// wireBuf converts records into their on-disk shape for immediate
// encoding: the results share the records' field maps and slices and
// live in the buffer's slabs, so they are valid only until release and
// only under whatever keeps the records from changing. A commit takes a
// buffer from wireBufs and returns it, so the name-keyed maps the gob
// shape demands are made once and reused — steady-state commits convert
// without allocating; a checkpoint uses one buffer for the whole heap.
type wireBuf struct {
	recs  []wireRecord
	ptrs  []*wireRecord
	trigs []wireTrig
	maps  []map[string]*wireTrig
	used  int // maps handed out since the last release
}

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// of converts recs. Both slabs are sized up front: the results point
// into them, so they must not grow while being filled.
func (wb *wireBuf) of(recs ...*Record) []*wireRecord {
	trigs := 0
	for _, r := range recs {
		trigs += len(r.Trigs)
	}
	wb.recs = slices.Grow(wb.recs[:0], len(recs))
	wb.ptrs = slices.Grow(wb.ptrs[:0], len(recs))
	wb.trigs = slices.Grow(wb.trigs[:0], trigs)
	for _, r := range recs {
		wb.recs = append(wb.recs, wireRecord{OID: r.OID, Class: r.Class, Fields: r.Fields})
		w := &wb.recs[len(wb.recs)-1]
		wb.ptrs = append(wb.ptrs, w)
		for i := range r.Trigs {
			t := &r.Trigs[i]
			if t.IsZero() {
				continue // never activated: absent, as it always was
			}
			if w.Triggers == nil {
				if wb.used == len(wb.maps) {
					wb.maps = append(wb.maps, map[string]*wireTrig{})
				}
				w.Triggers = wb.maps[wb.used]
				wb.used++
			}
			wb.trigs = append(wb.trigs, wireTrig{Active: t.Active, State: t.State, Dense: t.Params, Shadow: t.Shadow})
			w.Triggers[r.layout.Name(i)] = &wb.trigs[len(wb.trigs)-1]
		}
	}
	return wb.ptrs
}

// release drops every reference the buffer holds into records and
// returns it to the pool.
func (wb *wireBuf) release() {
	clear(wb.recs)
	clear(wb.ptrs)
	clear(wb.trigs)
	for _, m := range wb.maps[:wb.used] {
		clear(m)
	}
	wb.used = 0
	wireBufs.Put(wb)
}

// fromWire rebuilds a decoded record, interning its trigger names in
// the class layout.
func (s *Store) fromWire(w *wireRecord) (*Record, error) {
	if w == nil {
		return nil, errors.New("store: put frame or snapshot entry carries no record")
	}
	l := s.Layout(w.Class)
	r := &Record{OID: w.OID, Class: w.Class, Fields: w.Fields, layout: l}
	if r.Fields == nil {
		r.Fields = map[string]value.Value{}
	}
	for name, wt := range w.Triggers {
		if wt == nil {
			continue
		}
		if len(wt.Params) != 0 && len(wt.Dense) != len(wt.Params) {
			return nil, fmt.Errorf("store: object %d trigger %s: %d named activation parameter(s) but %d in declared order (log predates dense parameters)",
				w.OID, name, len(wt.Params), len(wt.Dense))
		}
		slot := l.Intern(name)
		r.grow(l.Len()) // once per record, except while the layout is still learning names
		r.Trigs[slot] = TrigState{Active: wt.Active, State: wt.State, Params: wt.Dense, Shadow: wt.Shadow}
	}
	return r, nil
}

const (
	walName      = "wal.log"
	snapshotName = "snapshot.gob"
)

// walFile appends commit batches to the log with group commit: the
// first committer to arrive becomes the leader, drains the queue of
// every commit buffer submitted while the previous batch was syncing,
// and flushes them with one Write and one Sync. Followers block on a
// per-commit done channel and are acked only after the shared Sync
// returns, so an acknowledged commit is always durable. The batching
// window is the duration of the in-flight write+Sync — under load,
// batches grow to cover every concurrent committer; with a single
// committer the behavior degenerates to one Sync per commit, same as
// direct mode.
//
// Because each transaction's frames are encoded into one contiguous
// buffer before submission, frames of different transactions never
// interleave inside the log, and a crash can only tear the final
// frame of the final batch — which recovery already discards
// (readWAL), preserving the torn-frame guarantee.
type walFile struct {
	f      *os.File
	direct bool            // disable batching: every commit writes and syncs itself
	faults *fault.Registry // nil outside the simulation harness

	mu      sync.Mutex // guards queue, dones, leading, and direct-mode writes
	queue   [][]byte
	dones   []chan error
	leading bool
}

func openWAL(dir string, direct bool, faults *fault.Registry) (*walFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	return &walFile{f: f, direct: direct, faults: faults}, nil
}

// commit appends one transaction's pre-encoded frames durably. In
// group-commit mode, concurrent callers are batched behind a leader
// that performs one Write and one Sync for the whole batch.
func (w *walFile) commit(buf []byte) error {
	if w.direct {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writeSync(buf)
	}
	done := make(chan error, 1)
	w.mu.Lock()
	w.queue = append(w.queue, buf)
	w.dones = append(w.dones, done)
	if w.leading {
		// A leader is already flushing; it will pick this commit up in
		// its next round.
		w.mu.Unlock()
		return <-done
	}
	w.leading = true
	for {
		bufs, dones := w.queue, w.dones
		w.queue, w.dones = nil, nil
		w.mu.Unlock()

		var batch []byte
		if len(bufs) == 1 {
			batch = bufs[0]
		} else {
			total := 0
			for _, b := range bufs {
				total += len(b)
			}
			batch = make([]byte, 0, total)
			for _, b := range bufs {
				batch = append(batch, b...)
			}
		}
		err := w.writeSync(batch)
		for _, d := range dones {
			d <- err
		}

		w.mu.Lock()
		if len(w.queue) == 0 {
			w.leading = false
			w.mu.Unlock()
			return <-done
		}
		// More commits arrived during the flush: lead another round.
	}
}

func (w *walFile) writeSync(b []byte) error {
	if w.faults != nil {
		// Torn batch write: persist only the first n bytes (synced, so
		// a simulated crash+reopen deterministically finds the torn
		// prefix) and surface the failure to every committer in the
		// batch. n < 0 means nothing reached the file at all.
		if n, err := w.faults.CheckTear(fault.WALWrite, len(b)); err != nil {
			if n > 0 {
				if _, werr := w.f.Write(b[:n]); werr != nil {
					return fmt.Errorf("store: write wal: %w", werr)
				}
				if serr := w.f.Sync(); serr != nil {
					return fmt.Errorf("store: sync wal: %w", serr)
				}
			}
			return fmt.Errorf("store: write wal: %w", err)
		}
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("store: write wal: %w", err)
	}
	if w.faults != nil {
		// Sync failure after a full write: the batch bytes are in the
		// file but were never acknowledged as durable — the classic
		// indeterminate commit a recovery must resolve atomically.
		if err := w.faults.Check(fault.WALSync); err != nil {
			return fmt.Errorf("store: sync wal: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}
	if w.faults != nil {
		// Crash after durability but before acknowledgment: the commit
		// is on disk, yet the committer sees an error.
		if err := w.faults.Check(fault.WALAfterSync); err != nil {
			return fmt.Errorf("store: wal ack: %w", err)
		}
	}
	return nil
}

func (w *walFile) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	return w.f.Sync()
}

func (w *walFile) close() error { return w.f.Close() }

// encodeFrame appends one length-prefixed gob-encoded frame to buf.
func encodeFrame(buf *bytes.Buffer, fr frame) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&fr); err != nil {
		return fmt.Errorf("store: encode wal frame: %w", err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
	buf.Write(hdr[:])
	buf.Write(body.Bytes())
	return nil
}

// ErrTornTail reports that the log ended in a torn or undecodable
// trailing record — the expected residue of a crash mid-append.
// readWAL still returns every intact frame before the tear; callers
// decide whether to repair (truncate to the clean prefix) or refuse.
var ErrTornTail = errors.New("store: torn wal tail")

// walScan summarizes one readWAL pass: the byte length of the clean
// frame prefix and how many trailing bytes fall after it.
type walScan struct {
	cleanLen  int64
	tornBytes int64
}

// readWAL parses all complete frames. A torn trailing frame (crash
// mid-append) or any undecodable tail is reported via an error
// wrapping ErrTornTail — alongside the intact frames, never silently
// dropped — so recovery can record and repair it.
func readWAL(dir string) ([]frame, walScan, error) {
	var sc walScan
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, sc, nil
	}
	if err != nil {
		return nil, sc, fmt.Errorf("store: read wal: %w", err)
	}
	frames, sc, reason := scanWAL(data)
	if sc.tornBytes > 0 {
		return frames, sc, fmt.Errorf("store: wal has %d trailing byte(s) after %d clean frame(s) (%s): %w",
			sc.tornBytes, len(frames), reason, ErrTornTail)
	}
	return frames, sc, nil
}

// scanWAL decodes the clean frame prefix of a log image and says why
// it stopped short, if it did.
func scanWAL(data []byte) (frames []frame, sc walScan, reason string) {
	total := int64(len(data))
	for len(data) > 0 {
		if len(data) < 4 {
			reason = fmt.Sprintf("%d-byte length-prefix fragment", len(data))
			break
		}
		n := binary.LittleEndian.Uint32(data[:4])
		if uint64(len(data)) < 4+uint64(n) {
			reason = fmt.Sprintf("frame promises %d body bytes, only %d present", n, len(data)-4)
			break
		}
		var fr frame
		if err := gob.NewDecoder(bytes.NewReader(data[4 : 4+uint64(n)])).Decode(&fr); err != nil {
			reason = fmt.Sprintf("undecodable frame body: %v", err)
			break
		}
		frames = append(frames, fr)
		data = data[4+uint64(n):]
		sc.cleanLen += 4 + int64(n)
	}
	sc.tornBytes = total - sc.cleanLen
	return frames, sc, reason
}

// snapshotImage is the gob payload of a checkpoint. Firings and
// FiringSeq persist the egress feed across the WAL reset that follows
// a checkpoint: the feed's records live in the WAL only until the next
// checkpoint folds them into the snapshot.
type snapshotImage struct {
	Next      OID
	Objects   map[OID]*wireRecord
	Firings   []FiringRecord
	FiringSeq uint64
}

func writeSnapshot(dir string, next OID, objects map[OID]*wireRecord, firings []FiringRecord, firingSeq uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	img := snapshotImage{Next: next, Objects: objects, Firings: firings, FiringSeq: firingSeq}
	if err := encodeSnapshot(tmp, &img); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	// Atomic publish: a crash leaves either the old or the new snapshot.
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	return nil
}

func encodeSnapshot(w io.Writer, img *snapshotImage) error {
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	return nil
}

func readSnapshot(dir string) (snapshotImage, error) {
	var img snapshotImage
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return img, nil
	}
	if err != nil {
		return img, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	return decodeSnapshot(f)
}

func decodeSnapshot(r io.Reader) (snapshotImage, error) {
	var img snapshotImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return img, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return img, nil
}
