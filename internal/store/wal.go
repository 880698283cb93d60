package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ode/internal/fault"
)

// The file names predate the format they now hold (codec.go): the
// benchmark reads both sizes by name.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.gob"
)

// walFile appends commit frames to the log with group commit: the
// first committer to arrive becomes the leader, drains the queue of
// every commit buffer submitted while the previous batch was syncing,
// and flushes them with one Write and one Sync. Followers block on a
// per-commit done channel and are acked only after the shared Sync
// returns, so an acknowledged commit is always durable. The batching
// window is the duration of the in-flight write+Sync — under load,
// batches grow to cover every concurrent committer; with a single
// committer the behavior degenerates to one Sync per commit.
//
// Each transaction is one frame in one contiguous buffer, so frames of
// different transactions never interleave inside the log, and a crash
// can only tear the final batch — whose incomplete frame fails its
// length or checksum and is discarded by recovery.
//
// A failed write is final. Once a Write or Sync has failed, the file may
// end in a partial frame, and a commit appended behind it would be
// acknowledged and then silently dropped by the next recovery, which
// stops at the tear. So the first such error sticks: every later commit
// fails with it until the store is reopened and recovery has repaired
// the tail.
type walFile struct {
	f      *os.File
	faults *fault.Registry // nil outside the simulation harness

	mu      sync.Mutex // guards queue, dones, leading, failed
	queue   [][]byte
	dones   []chan error
	leading bool
	failed  error
	batch   []byte // the leader's coalescing buffer
}

func openWAL(dir string, faults *fault.Registry) (*walFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	w := &walFile{f: f, faults: faults}
	st, err := f.Stat()
	if err == nil && st.Size() == 0 {
		err = w.writeHeader()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	return w, nil
}

// writeHeader starts an empty log.
func (w *walFile) writeHeader() error {
	if _, err := w.f.Write(walMagic[:]); err != nil {
		return err
	}
	return w.f.Sync()
}

// commit appends one transaction's frame durably. Concurrent callers
// are batched behind a leader that performs one Write and one Sync for
// the whole batch.
func (w *walFile) commit(buf []byte) error {
	done := make(chan error, 1)
	w.mu.Lock()
	if w.failed != nil {
		w.mu.Unlock()
		return w.failed
	}
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
		err := w.failed
		w.mu.Unlock()

		if err == nil {
			batch := bufs[0]
			if len(bufs) > 1 {
				batch = w.batch[:0]
				for _, b := range bufs {
					batch = append(batch, b...)
				}
				w.batch = batch
			}
			if err = w.writeSync(batch); err != nil && !leavesLogIntact(err) {
				w.mu.Lock()
				w.failed = err
				w.mu.Unlock()
			}
		}
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

// nothingWritten reports an injected failure that let no byte of the
// batch reach the file (WALWrite with Tear < 0).
func nothingWritten(err error) bool {
	var fe *fault.Error
	return errors.As(err, &fe) && fe.Point == fault.WALWrite && fe.Tear < 0
}

// leavesLogIntact reports a write failure after which the file is still
// a well-formed log: nothing of the batch reached it, or all of it did
// and was synced (the injected lost acknowledgement). Only injected
// faults can promise either.
func leavesLogIntact(err error) bool {
	var fe *fault.Error
	return nothingWritten(err) || errors.As(err, &fe) && fe.Point == fault.WALAfterSync
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

// reset empties the log after a checkpoint absorbed it. A failed log
// stays failed: its handle is not trusted to truncate either.
func (w *walFile) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	// O_APPEND: the header lands at the new end, offset 0.
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("store: restart wal: %w", err)
	}
	return nil
}

func (w *walFile) close() error { return w.f.Close() }

// ErrTornTail reports that the log ended in a torn or undecodable
// trailing frame — the expected residue of a crash mid-append.
// Recovery still applies every intact frame before the tear and repairs
// the file by truncating it to that clean prefix.
var ErrTornTail = errors.New("store: torn wal tail")

// walScan summarizes one pass over a log image: the byte length of the
// clean prefix and how many trailing bytes fall after it.
type walScan struct {
	cleanLen  int64
	tornBytes int64
}

// readStoreFile returns the bytes of a store file, nil if it is absent.
func readStoreFile(dir, name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: read %s: %w", name, err)
	}
	return data, nil
}

// scanWAL decodes the clean prefix of a current-format log image, header
// included, handing each transaction to apply as soon as its frame has
// verified and decoded whole, and says why it stopped short, if it did.
func (s *Store) scanWAL(data []byte, apply func(*txImage)) (sc walScan, reason string) {
	if len(data) < fileHdrLen {
		// A fragment of the header: the crash hit while an empty log was
		// being started.
		return walScan{tornBytes: int64(len(data))}, fmt.Sprintf("%d-byte file-header fragment", len(data))
	}
	clean, reason := scanFrames(data[fileHdrLen:], func(payload []byte) error {
		if payload[0] != frameTx {
			return fmt.Errorf("frame of kind %d in a log", payload[0])
		}
		tx, err := s.decodeTx(payload[1:])
		if err != nil {
			return err
		}
		apply(&tx)
		return nil
	})
	sc.cleanLen = int64(fileHdrLen + clean)
	sc.tornBytes = int64(len(data)) - sc.cleanLen
	return sc, reason
}

// snapshotState is what a checkpoint records beside the heap and the
// feed (loading pushes both into place): the OID allocator's position
// and the feed's.
type snapshotState struct {
	loaded    bool
	next      OID
	firingSeq uint64
}

// snapChunkRecords and snapChunkFirings bound one snapshot chunk frame,
// and so the encode buffer a checkpoint of any size needs.
const (
	snapChunkRecords = 256
	snapChunkFirings = 4096
)

// writeSnapshot streams the committed view and the feed into a new
// snapshot file: header frame, record chunks in ascending OID order,
// firing chunks, trailer with the totals. The caller holds walMu's write
// side, so the images do not move.
func (s *Store) writeSnapshot() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<16)
	werr := s.streamSnapshot(w)
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		tmp.Close()
		return fmt.Errorf("store: write snapshot: %w", werr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	// Atomic publish: a crash leaves either the old or the new snapshot.
	// The rename is durable before the caller truncates the WAL, or a
	// crash could leave the old snapshot beside an empty log.
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// syncDir is SyncDir, swapped by a test that pins where it runs.
var syncDir = SyncDir

// SyncDir fsyncs directory dir, making the entries renamed or created
// in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *Store) streamSnapshot(w *bufio.Writer) error {
	cells, firingSeq := s.egress.frozen()
	enc := encoders.Get().(*encoder)
	enc.sorted = true
	defer func() { enc.sorted = false; encoders.Put(enc) }()
	chunk := func(recs []*Record, firings []FiringRecord) error {
		frame, err := enc.tx(0, recs, nil, firings)
		if err == nil {
			_, err = w.Write(frame)
		}
		return err
	}
	// The header and trailer frames: a kind byte and two uvarints.
	pair := func(kind byte, a, b uint64) error {
		_, err := w.Write(appendFrame(nil, kind, binary.AppendUvarint(binary.AppendUvarint(nil, a), b)))
		return err
	}
	if _, err := w.Write(snapMagic[:]); err != nil {
		return err
	}
	if err := pair(frameSnapHeader, s.nextOID.Load(), firingSeq); err != nil {
		return err
	}
	records, recs := 0, make([]*Record, 0, snapChunkRecords)
	var err error
	flush := func() {
		if len(recs) > 0 && err == nil {
			err, records = chunk(recs, nil), records+len(recs)
		}
		recs = recs[:0]
	}
	s.eachCommitted(func(r *Record) {
		if recs = append(recs, r); len(recs) == snapChunkRecords {
			flush()
		}
	})
	if flush(); err != nil {
		return err
	}
	// The feed goes out through one chunk-sized buffer, never copied whole.
	firings := make([]FiringRecord, 0, min(len(cells), snapChunkFirings))
	for lo := 0; lo < len(cells); lo += snapChunkFirings {
		firings = firings[:0]
		for i := lo; i < min(lo+snapChunkFirings, len(cells)); i++ {
			firings = append(firings, s.egress.record(&cells[i]))
		}
		if err := chunk(nil, firings); err != nil {
			return err
		}
	}
	return pair(frameSnapTrailer, uint64(records), uint64(len(cells)))
}

// loadSnapshot installs the heap a current-format snapshot image holds
// and returns the rest of its state. The file was published by an atomic
// rename, so unlike a log it has no legitimate torn state: a frame that
// does not verify, a missing header or trailer, or totals that disagree
// with the chunks fail the open.
func (s *Store) loadSnapshot(data []byte) (snap snapshotState, err error) {
	const (
		wantHeader = iota
		inChunks
		done
	)
	phase, records := wantHeader, uint64(0)
	var foreign error // the object install refused
	clean, reason := scanFrames(data[fileHdrLen:], func(payload []byte) error {
		kind, r := payload[0], reader{b: payload[1:]}
		switch {
		case phase == wantHeader && kind == frameSnapHeader:
			snap.next, snap.firingSeq = OID(r.uvarint()), r.uvarint()
			phase = inChunks
		case phase == inChunks && kind == frameTx:
			tx, err := s.decodeTx(payload[1:])
			if err != nil {
				return err
			}
			for _, rec := range tx.recs {
				if foreign = s.install(rec); foreign != nil {
					return foreign
				}
			}
			records += uint64(len(tx.recs))
			s.egress.push(tx.firings...)
		case phase == inChunks && kind == frameSnapTrailer:
			if nr, nf := r.uvarint(), r.uvarint(); r.err == nil && (nr != records || nf != s.FiringsAppended()) {
				return fmt.Errorf("trailer counts %d record(s) and %d firing(s), chunks held %d and %d", nr, nf, records, s.FiringsAppended())
			}
			phase = done
		default:
			return fmt.Errorf("frame of kind %d out of place", kind)
		}
		return r.err
	})
	switch {
	case foreign != nil:
		return snap, foreign
	case reason != "":
		return snap, fmt.Errorf("store: snapshot corrupt at byte %d: %s", fileHdrLen+clean, reason)
	case phase != done:
		return snap, errors.New("store: snapshot corrupt: no trailer")
	}
	snap.loaded = true
	return snap, nil
}
