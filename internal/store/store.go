// Package store implements the persistent object store substrate under
// the Ode engine (paper §2: "persistent objects are allocated in
// persistent memory and they continue to exist after the program
// creating them has terminated; each persistent object is identified
// by a unique identifier, called the object identity").
//
// The store keeps every object in memory as a Record and, when opened
// on a directory, makes committed changes durable with a snapshot file
// plus a write-ahead log. A transaction is one checksummed frame (see
// codec.go); recovery applies a frame only if it is complete and
// verifies, so a crash mid-commit never exposes a partial transaction.
//
// The objects live in a table indexed by OID arithmetic (table.go), one
// slot per object holding its live record and its committed image
// (epoch.go). Concurrent committers share the WAL through group commit
// (wal.go). Object locking and undo are the transaction manager's
// concern (internal/txn): the store trusts callers to hold an object's
// lock while mutating its record.
package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"ode/internal/fault"
	"ode/internal/value"
)

// OID is an object identity: a stable unique identifier for a
// persistent object, usable as an object reference in field values.
type OID uint64

// TrigState is the per-object state of one trigger: whether it is
// active, its activation parameters, and — for committed-view triggers
// — the automaton state: the paper's "one integer of state per object
// per active trigger" (§5). Keeping it inside the record implements the
// §6 option where "the automaton state is considered part of the object
// data structure and hence will be restored correctly upon abort";
// activation and deactivation are transactional for the same reason.
// The zero value is a trigger that was never activated. It is 16 bytes:
// what few instances have hangs off ext.
type TrigState struct {
	State  int32
	Active bool
	ext    *trigExt // nil unless the activation has parameters
}

// trigExt is the rarely present part of a TrigState. It is immutable and
// shared by the live record, its images and their copies — activation
// installs a fresh slice and nothing ever writes an element of an
// existing one.
type trigExt struct {
	Params []value.Value // activation parameters, in the trigger's declared order
}

// newExt returns the ext holding params, nil for none.
func newExt(params []value.Value) *trigExt {
	if len(params) == 0 {
		return nil
	}
	return &trigExt{Params: params}
}

// Params returns the activation parameters; the slice must not be written.
func (t *TrigState) Params() []value.Value {
	if t.ext == nil {
		return nil
	}
	return t.ext.Params
}

// SetParams installs the parameters of a new activation, which starts
// without a history; t takes ownership of p.
func (t *TrigState) SetParams(p []value.Value) { t.ext = newExt(p) }

// IsZero reports whether the trigger was never activated on the object.
func (t *TrigState) IsZero() bool { return *t == TrigState{} }

// equal reports whether two trigger states have the same content. The
// common case is one pointer comparison (no ext, or a shared one);
// content decides when the pointers differ — a re-activation with equal
// parameters is not a change.
func (t *TrigState) equal(u *TrigState) bool {
	if t.Active != u.Active || t.State != u.State {
		return false
	}
	return t.ext == u.ext || slices.Equal(t.Params(), u.Params())
}

// Record is the stored representation of one object. A live record and
// its committed image share one Fields map until the record's next
// write (see SetField), so Fields is written only through SetField.
type Record struct {
	OID    OID
	Class  string
	Fields map[string]value.Value
	// Trigs is the object's trigger state, one entry per slot of the
	// class layout (see Layout), held by value: stepping a trigger is an
	// indexed store, and a committed image of all of it is one slice
	// copy. A record may be shorter than its layout — the missing slots
	// were never activated.
	Trigs []TrigState

	layout *Layout
	shared bool // Fields is also an image's or a copy's: SetField copies it first
}

// Field returns the named field's value; ok is false if the object has
// no such field. Code outside this package reads fields through it, so
// the representation of Fields can change under them.
func (r *Record) Field(name string) (value.Value, bool) {
	v, ok := r.Fields[name]
	return v, ok
}

// SetField writes the named field: the one write path into a Fields map,
// and so the write barrier of the map a live record shares with its
// image. A shared map is copied before the first write that changes it;
// writing the value a field already holds (==, so a NaN equals itself)
// writes nothing. The caller must hold the object's transaction lock;
// images (GetCommitted) are never written.
func (r *Record) SetField(name string, v value.Value) {
	if old, ok := r.Fields[name]; ok && old == v {
		return
	}
	if r.shared {
		r.Fields, r.shared = maps.Clone(r.Fields), false
	}
	r.Fields[name] = v
}

// Slots sizes Trigs to the class layout and returns it, so every slot a
// registered trigger resolved to is addressable by index. The engine
// calls it before taking any slot pointer; the caller must hold the
// object's transaction lock.
func (r *Record) Slots() []TrigState {
	r.grow(r.layout.Len())
	return r.Trigs
}

// grow extends Trigs with never-activated slots to at least n.
func (r *Record) grow(n int) {
	if len(r.Trigs) < n {
		grown := make([]TrigState, n)
		copy(grown, r.Trigs)
		r.Trigs = grown
	}
}

// Trig returns the state at slot without touching the record — the way
// to read shared images and unlocked records; a slot past the end was
// never activated.
func (r *Record) Trig(slot int) TrigState {
	if slot >= len(r.Trigs) {
		return TrigState{}
	}
	return r.Trigs[slot]
}

// Trigger returns the named trigger's state for update, interning the
// name in the class layout. The pointer is valid until the layout next
// grows. The caller must hold the object's transaction lock.
func (r *Record) Trigger(name string) *TrigState {
	slot := r.layout.Intern(name)
	return &r.Slots()[slot]
}

// Owner returns its layout's owner (Layout.SetOwner), nil if it has none.
func (r *Record) Owner() any { return r.layout.owner.Load() }

// TrigName returns the trigger name of a slot of Trigs.
func (r *Record) TrigName(slot int) string { return r.layout.Name(slot) }

// copyTrigs returns a copy of src, sharing its (immutable) exts.
func copyTrigs(src []TrigState) []TrigState {
	if len(src) == 0 {
		return nil
	}
	return slices.Clone(src)
}

// clone copies the record's trigger slots and shares its Fields map,
// marking the copy so that SetField copies the map before writing it:
// Restore rebuilds a live record from an image with it, and Snapshot
// serves the before-image of an object that has no committed image.
func (r *Record) clone() *Record {
	return &Record{OID: r.OID, Class: r.Class, Fields: r.Fields, layout: r.layout, Trigs: copyTrigs(r.Trigs), shared: true}
}

// sameTrigs compares two slot slices by content; slots one of them
// lacks must be never-activated in the other.
func sameTrigs(a, b []TrigState) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := range a {
		if !a[i].equal(&b[i]) {
			return false
		}
	}
	for i := len(a); i < len(b); i++ {
		if !b[i].IsZero() {
			return false
		}
	}
	return true
}

// image returns the immutable committed image of r, given prev, the
// object's previous image (nil if it has none): prev itself when r is
// content-equal to it, otherwise a new Record that shares the Trigs
// slice with prev if no slot moved, or copies it. Change is detected by
// comparing content, never by flags (a missed flag would be silent
// rollback corruption; a comparison cannot be bypassed): a record's
// map may be shared and still differ from prev's — rolled back to a
// savepoint's copy, say. The image and r share one Fields map, prev's
// if its content is r's: r drops its duplicate and is marked shared,
// so its next write copies the map (SetField) and never reaches the
// image. Besides it, an image shares with the live record only Params
// slices, which nobody writes.
func (r *Record) image(prev *Record) *Record {
	fieldsSame := prev != nil && maps.Equal(r.Fields, prev.Fields)
	trigsSame := prev != nil && sameTrigs(r.Trigs, prev.Trigs)
	if fieldsSame {
		r.Fields = prev.Fields
	}
	r.shared = true
	if fieldsSame && trigsSame {
		return prev
	}
	img := &Record{OID: r.OID, Class: r.Class, layout: r.layout, Fields: r.Fields}
	if trigsSame {
		img.Trigs = prev.Trigs
	} else {
		img.Trigs = copyTrigs(r.Trigs)
	}
	return img
}

// Options tunes a store. The zero value is the production default.
type Options struct {
	// Faults optionally installs a fault-injection registry the WAL
	// consults at its named points (see internal/fault). nil — the
	// production default — keeps every consult a single branch.
	Faults *fault.Registry
	// OIDBase and OIDStride restrict allocation to the arithmetic
	// progression base, base+stride, base+2·stride, … — partition p of N
	// opens its store with base p+1 and stride N so every partition
	// allocates from a disjoint residue class and an OID's owner can be
	// recomputed from the OID alone ((oid-1) mod N), stable across
	// restarts by construction. Zero values mean base 1, stride 1 (the
	// unpartitioned default: every OID).
	OIDBase   uint64
	OIDStride uint64
}

// RecoveryInfo describes what the last Open recovered from disk.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a checkpoint snapshot was found.
	SnapshotLoaded bool
	// WALFrames is the number of complete frames replayed from the log:
	// one per transaction, except in a directory an earlier version wrote.
	WALFrames int
	// TxApplied is the number of committed transactions applied.
	TxApplied int
	// TornTail reports that the log ended in a torn or undecodable
	// trailing record (crash mid-append). The tail was discarded and
	// the file truncated to the clean prefix before reopening, so
	// later appends cannot hide committed frames behind garbage.
	TornTail bool
	// TornTailBytes is the size of the discarded tail.
	TornTailBytes int64
	// TornDetail is the human-readable tear diagnosis.
	TornDetail string
}

// Store is an in-memory object heap with optional durability.
type Store struct {
	nextOID  atomic.Uint64 // next OID to allocate
	tab      table         // the objects, live and committed
	dir      string        // "" → volatile
	opts     Options
	recovery RecoveryInfo // filled by recover() at Open

	// walMu orders WAL lifecycle against commits: a commit holds the
	// read side for its whole append and publication, Close/Checkpoint
	// take the write side, so a checkpoint sees every image of the
	// frames it truncates.
	walMu sync.RWMutex
	wal   *walFile

	// epoch counts the commits that changed the committed view (see
	// epoch.go), whose images live in the table's slots.
	epoch atomic.Uint64

	// layouts maps each class name to its trigger-slot layout (see
	// layout.go); copy-on-write under layoutMu.
	layoutMu sync.Mutex
	layouts  atomic.Pointer[map[string]*Layout]

	// egress is the durable firing feed (see egress.go): records are
	// reserved sequence numbers before the WAL write and resolved after
	// it, recovered alongside the object heap at Open.
	egress egressLog
}

// Open returns a store rooted at dir. With dir == "" the store is
// purely in-memory ("volatile memory" in the paper's terms). Otherwise
// the snapshot and WAL in dir are loaded and replayed, and subsequent
// committed transactions are appended to the WAL.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit Options.
func OpenWith(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, egress: egressLog{nameIDs: map[firingName]uint32{}}}
	s.tab.base, s.tab.stride = max(opts.OIDBase, 1), max(opts.OIDStride, 1)
	s.tab.root.Store(&node{h: 1})
	s.nextOID.Store(s.tab.base)
	s.layouts.Store(&map[string]*Layout{})
	if dir == "" {
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.seedEpochView()
	w, err := openWAL(dir, opts.Faults)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// Recovery returns what the last Open recovered (zero for volatile
// stores and stores opened on an empty directory).
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Close releases the WAL file handle. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal != nil {
		err := s.wal.close()
		s.wal = nil
		return err
	}
	return nil
}

// Create allocates a new object with the given class and fields and
// returns its identity. Durability happens when the creating
// transaction commits (LogCommit). The record shares fields until its
// first write (SetField): the caller must not write the map afterwards.
func (s *Store) Create(class string, fields map[string]value.Value) *Record {
	stride := s.tab.stride
	oid := OID(s.nextOID.Add(stride) - stride)
	if fields == nil {
		fields = map[string]value.Value{}
	}
	r := &Record{OID: oid, Class: class, Fields: fields, layout: s.Layout(class), shared: true}
	s.tab.setLive(oid, r)
	return r
}

// NextOID returns the OID the next Create will allocate: OIDs are
// allocated in increasing order, so every object that exists now is
// below it.
func (s *Store) NextOID() OID { return OID(s.nextOID.Load()) }

// live returns oid's live record, nil if it has none.
func (s *Store) live(oid OID) *Record {
	if sl := s.tab.slot(oid); sl != nil {
		return sl.live.Load()
	}
	return nil
}

// Get returns the live record for oid. Callers mutate the record only
// while holding the object's transaction lock.
func (s *Store) Get(oid OID) (*Record, error) {
	if r := s.live(oid); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("store: no object %d", oid)
}

// LockWord returns oid's lock word, which package txn owns; nil: no slot.
func (s *Store) LockWord(oid OID) *atomic.Uint64 {
	if sl := s.tab.slot(oid); sl != nil {
		return &sl.lock
	}
	return nil
}

// Exists reports whether oid names a live object.
func (s *Store) Exists(oid OID) bool { return s.live(oid) != nil }

// Delete removes the object from the heap. The undo log keeps aborted
// deletes reversible via Restore.
func (s *Store) Delete(oid OID) error {
	if s.tab.setLive(oid, nil) == nil {
		return fmt.Errorf("store: no object %d", oid)
	}
	return nil
}

// Snapshot returns a copy of the live record with its own trigger
// slots. It shares the record's Fields map only if the record already
// shares it — SetField copies it before the record's next write — and
// copies it otherwise, so the live record is left as it was.
func (s *Store) Snapshot(oid OID) (*Record, error) {
	r, err := s.Get(oid)
	if err != nil {
		return nil, err
	}
	c := r.clone()
	if !r.shared {
		c.Fields = maps.Clone(r.Fields)
	}
	return c, nil
}

// Restore reinstates a before-image — normally the object's shared
// committed image, so it is copied (clone), never installed: the copy
// gets its own trigger slots and shares the image's Fields map until its
// first write — resurrecting the object if it was deleted in the
// meantime. live, if not nil, is the record the rolled-back transaction
// worked on: for each slot the class layout keeps (Layout.Keep) that is
// active in both, State — never Active or Params — is copied from it over
// the copy. Restore
// returns the installed record and whether it kept anything, that is,
// differs from img; the caller then commits it like any other change
// before it releases the object's lock.
func (s *Store) Restore(img, live *Record) (rec *Record, kept bool) {
	rec = img.clone()
	if live != nil {
		for _, slot := range img.layout.tab.Load().kept {
			if slot >= len(rec.Trigs) || slot >= len(live.Trigs) {
				continue
			}
			to, from := &rec.Trigs[slot], &live.Trigs[slot]
			if to.Active && from.Active && to.State != from.State {
				to.State = from.State
				kept = true
			}
		}
	}
	s.tab.setLive(img.OID, rec)
	return rec, kept
}

// Remove undoes an aborted creation: it deletes oid if present, and the
// OID, never to be allocated again, is dead.
func (s *Store) Remove(oid OID) {
	s.tab.setLive(oid, nil)
	s.tab.bury(oid, OID(s.nextOID.Load()))
}

// Count returns the number of live objects.
func (s *Store) Count() int { return int(s.tab.live.Load()) }

// OIDs returns the identities of all live objects in ascending order.
// Each slot is read at its own instant.
func (s *Store) OIDs() []OID {
	var out []OID
	s.tab.each(func(oid OID, sl *slot) {
		if sl.live.Load() != nil {
			out = append(out, oid)
		}
	})
	return out
}

// Touched is one object a committing transaction accessed and did not
// delete: its live record and the committed image it had when the
// transaction first accessed it (nil if it had none). The transaction
// manager holds both already, so the commit looks neither up again;
// it fills in Next, the next committed image — nil if nothing changed.
type Touched struct {
	Rec  *Record
	Prev *Record
	Next *Record
}

// Commit is the transaction manager's commit point: it builds the next
// image of every touched object that changed (Record.image), logs those
// images, the deletions and the firings as one WAL frame and — only if
// that succeeded — publishes the images. The caller holds the objects'
// locks. An object content-equal to its image is not dirty: nothing is
// built, logged or published for it, and a commit with nothing to log
// does no Sync. On error nothing was published and the caller rolls back.
func (s *Store) Commit(txID uint64, touched []Touched, deleted []OID, firings []FiringRecord) error {
	return s.logCommit(txID, touched, nextImages(touched), deleted, firings)
}

// LogCommit is Commit for callers that track objects by OID: it logs
// every listed surviving object, changed or not, and publishes the
// images of the changed ones. The caller holds the objects' locks.
func (s *Store) LogCommit(txID uint64, dirty []OID, deleted []OID, firings []FiringRecord) error {
	touched := s.touchedOf(dirty)
	for i := range touched {
		t := &touched[i]
		t.Next = t.Rec.image(t.Prev) // Prev if unchanged: logged all the same
	}
	return s.logCommit(txID, touched, len(touched), deleted, firings)
}

// logCommit writes one transaction's WAL frame from the entries' Next
// images (logged of them are not nil) and publishes them under the same
// read side of walMu, so a checkpoint precedes the frame or follows the
// publication. The firings are stamped with consecutive feed sequence
// numbers before the write, so the numbers are inside the durable frame,
// and become visible on the feed only if the commit succeeds.
func (s *Store) logCommit(txID uint64, touched []Touched, logged int, deleted []OID, firings []FiringRecord) error {
	if logged == 0 && len(deleted) == 0 && len(firings) == 0 {
		return nil
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	var lo uint64
	if len(firings) > 0 {
		// Fault point before any egress state changes: an injected
		// failure here aborts the commit cleanly — no sequence numbers
		// reserved, no gap in the feed.
		if s.opts.Faults != nil {
			if err := s.opts.Faults.Check(fault.EgressAppend); err != nil {
				return fmt.Errorf("store: egress append: %w", err)
			}
		}
		lo = s.egress.reserve(len(firings))
		for i := range firings {
			firings[i].Seq = lo + uint64(i)
			if firings[i].TxID == 0 {
				firings[i].TxID = txID
			}
		}
	}
	var err error
	reclaim := true // no byte of the frame reached the file
	if s.wal != nil {
		// The encoder goes back to the pool only after wal.commit returns:
		// a follower's frame is read by the group-commit leader until then.
		enc := encoders.Get().(*encoder)
		recs := enc.recs[:0]
		for i := range touched {
			if next := touched[i].Next; next != nil {
				recs = append(recs, next)
			}
		}
		var frame []byte
		if frame, err = enc.tx(txID, recs, deleted, firings); err == nil {
			err = s.wal.commit(frame)
			reclaim = nothingWritten(err)
		}
		clear(recs) // a pooled encoder must not keep images alive
		enc.recs = recs
		encoders.Put(enc)
	}
	if len(firings) > 0 {
		if err == nil {
			s.egress.resolveOK(lo, firings)
		} else {
			// Reclaim the sequence numbers only when no byte of the
			// frame can have reached the file (it did not encode, or an
			// injected WALWrite fault with Tear < 0). Any other failure is
			// indeterminate — the frame may be durable and recovery may
			// resurrect it — so the numbers are burned and the feed keeps
			// a gap rather than ever reusing a seq for a different firing.
			s.egress.resolveFail(lo, reclaim)
		}
	}
	if err != nil {
		return err
	}
	s.publish(touched, deleted)
	return nil
}

// Checkpoint writes a snapshot of the committed view and the feed and
// truncates the WAL; a no-op for volatile stores. walMu's write side
// excludes every commit, so the images are the state of exactly the
// frames the reset discards, no firing is pending, and an open
// transaction's writes, which have no image, are not in it.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	return s.wal.reset()
}

// recover loads the snapshot and replays the WAL. It runs
// single-threaded at Open, before the store is shared. A torn trailing
// WAL frame (ErrTornTail) is recorded in RecoveryInfo and repaired by
// truncating the file to its clean prefix — appending after a torn
// tail would leave garbage in the middle of the log, and the next
// recovery would then silently stop at the tear and drop every later
// committed transaction. A file whose header is neither empty, a torn
// prefix of its magic nor the magic fails the open with both files
// untouched (formatOf).
func (s *Store) recover() error {
	snapData, err := readStoreFile(s.dir, snapshotName)
	if err != nil {
		return err
	}
	var snap snapshotState
	format, err := formatOf(filepath.Join(s.dir, snapshotName), snapData, snapMagic)
	switch {
	case err != nil:
	case format == formatCurrent:
		snap, err = s.loadSnapshot(snapData)
	case format == formatTornHeader:
		err = fmt.Errorf("store: snapshot corrupt: %d-byte file", len(snapData))
	}
	if err != nil {
		return err
	} else if snap.loaded {
		s.advance(uint64(snap.next))
	}
	s.recovery.SnapshotLoaded = snap.loaded

	// Rebuild the egress feed: the snapshot's records plus the firings of
	// the logged transactions. A crash between writeSnapshot and the WAL
	// reset leaves frames the snapshot already absorbed, so firings at or
	// below the snapshot's FiringSeq are duplicates and dropped.
	firingSeq := snap.firingSeq
	var foreign error // the first object install refused
	apply := func(tx *txImage) {
		s.recovery.TxApplied++
		for _, r := range tx.recs {
			if err := s.install(r); err != nil && foreign == nil {
				foreign = err
			}
		}
		for _, oid := range tx.deleted {
			s.tab.setLive(oid, nil)
		}
		for _, fr := range tx.firings {
			if fr.Seq > snap.firingSeq {
				s.egress.push(fr)
				firingSeq = max(firingSeq, fr.Seq)
			}
		}
	}
	walData, err := readStoreFile(s.dir, walName)
	if err != nil {
		return err
	}
	var sc walScan
	var reason string
	switch format, err = formatOf(filepath.Join(s.dir, walName), walData, walMagic); {
	case err != nil:
		return err
	case format != formatEmpty:
		sc, reason = s.scanWAL(walData, apply)
		s.recovery.WALFrames = s.recovery.TxApplied
	}
	if foreign != nil {
		return foreign
	}
	if sc.tornBytes > 0 {
		s.recovery.TornTail = true
		s.recovery.TornTailBytes = sc.tornBytes
		s.recovery.TornDetail = fmt.Sprintf("store: wal has %d trailing byte(s) after %d clean frame(s) (%s): %v",
			sc.tornBytes, s.recovery.WALFrames, reason, ErrTornTail)
		if err := os.Truncate(filepath.Join(s.dir, walName), sc.cleanLen); err != nil {
			return fmt.Errorf("store: repair torn wal tail: %w", err)
		}
	}
	s.egress.load(firingSeq)
	return nil
}

// install puts one recovered committed record into the heap and moves
// the OID allocator past it. An OID the store does not allocate (a
// directory opened with another partition count) is refused with an
// error that fails the open. Runs single-threaded at Open.
func (s *Store) install(r *Record) error {
	if _, ok := s.tab.index(r.OID); !ok {
		return fmt.Errorf("store: object %d is not among this store's OIDs %d + k·%d: the directory was written with another OIDBase/OIDStride",
			r.OID, s.tab.base, s.tab.stride)
	}
	s.tab.setLive(r.OID, r)
	s.advance(uint64(r.OID) + 1)
	return nil
}

// advance moves the allocator to at least next, rounded up into the
// store's residue class. Runs single-threaded at Open.
func (s *Store) advance(next uint64) {
	if next > s.nextOID.Load() {
		s.nextOID.Store(s.tab.base + (next-s.tab.base+s.tab.stride-1)/s.tab.stride*s.tab.stride)
	}
}
