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
// The object heap is hash-striped: OIDs map to numStripes stripes,
// each guarded by its own RWMutex, so Get/Exists on different objects
// never contend, and OID allocation is a single atomic counter.
// Whole-store operations (OIDs, Count, Checkpoint, recovery) visit the
// stripes in index order. Concurrent committers share the WAL through
// group commit (see wal.go): concurrent LogCommit calls coalesce into
// one buffered write and one Sync.
//
// Concurrency control (object-level locking) and undo are the
// transaction manager's concern (internal/txn); the store itself only
// guards its maps with stripe mutexes and trusts callers to hold
// object locks while mutating records.
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
	ext    *trigExt // nil unless the activation has parameters or a shadow history
}

// trigExt is the rarely present part of a TrigState. One that carries
// only Params is immutable and shared by the live record, its images
// and their copies — activation installs a fresh slice and nothing ever
// writes an element of an existing one; one with a Shadow belongs to a
// single TrigState (copyTrigs), so the live record appends in place.
type trigExt struct {
	Params []value.Value // activation parameters, in the trigger's declared order
	// Shadow is the instance's symbol history, kept only when the
	// engine's shadow-oracle mode is on; stored here so it is rolled
	// back on abort exactly like State.
	Shadow []int
}

// newExt returns the ext holding params and shadow, nil for neither.
func newExt(params []value.Value, shadow []int) *trigExt {
	if len(params) == 0 && len(shadow) == 0 {
		return nil
	}
	return &trigExt{Params: params, Shadow: shadow}
}

// Params returns the activation parameters; the slice must not be written.
func (t *TrigState) Params() []value.Value {
	if t.ext == nil {
		return nil
	}
	return t.ext.Params
}

// Shadow returns the recorded symbol history.
func (t *TrigState) Shadow() []int {
	if t.ext == nil {
		return nil
	}
	return t.ext.Shadow
}

// SetParams installs the parameters of a new activation, which starts
// without a history; t takes ownership of p.
func (t *TrigState) SetParams(p []value.Value) { t.ext = newExt(p, nil) }

// AppendShadow records sym as the instance's latest symbol.
// A fresh ext every time: the old one may be shared, and a copy of the
// slot (a savepoint's, txn.Tx.Mark) must keep its own history.
func (t *TrigState) AppendShadow(sym int) {
	t.ext = &trigExt{Params: t.Params(), Shadow: append(t.Shadow(), sym)}
}

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
	return t.ext == u.ext ||
		slices.Equal(t.Params(), u.Params()) && slices.Equal(t.Shadow(), u.Shadow())
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

// TrigName returns the trigger name of a slot of Trigs.
func (r *Record) TrigName(slot int) string { return r.layout.Name(slot) }

// copyTrigs returns a copy of src that shares nothing mutable with it:
// an ext is shared unless it carries a Shadow history, which is copied.
func copyTrigs(src []TrigState) []TrigState {
	if len(src) == 0 {
		return nil
	}
	out := make([]TrigState, len(src))
	copy(out, src)
	for i := range out {
		if sh := out[i].Shadow(); len(sh) > 0 {
			out[i].ext = &trigExt{Params: out[i].ext.Params, Shadow: slices.Clone(sh)}
		}
	}
	return out
}

// clone copies the record's trigger slots and shares its Fields map,
// marking the copy so that SetField copies the map before writing it:
// Restore rebuilds a live record from an image with it, and Snapshot
// serves the before-image of an object that has no committed image.
func (r *Record) clone() *Record {
	return &Record{OID: r.OID, Class: r.Class, Fields: r.Fields, layout: r.layout, Trigs: copyTrigs(r.Trigs), shared: true}
}

func sameValues(a, b map[string]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
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
	fieldsSame := prev != nil && sameValues(r.Fields, prev.Fields)
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

// numStripes is the number of object-heap stripes (power of two).
const numStripes = 64

// stripe is one slice of the object heap with its own lock.
type stripe struct {
	mu      sync.RWMutex
	objects map[OID]*Record
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
	oidStep  uint64        // allocation stride (Options.OIDStride, ≥1)
	stripes  [numStripes]stripe
	dir      string // "" → volatile
	opts     Options
	recovery RecoveryInfo // filled by recover() at Open
	legacy   bool         // recover() read a file in the pre-PR-14 format (legacy.go)

	// walMu orders WAL lifecycle against commits: LogCommit holds the
	// read side for its whole append, Close/Checkpoint take the write
	// side. Lock order is always walMu → stripe locks.
	walMu sync.RWMutex
	wal   *walFile

	// Epoch-based copy-on-write committed view (see epoch.go): one
	// epochStripe per heap stripe plus a publication counter, giving
	// lock-free read-committed access for queries and introspection.
	epochs [numStripes]epochStripe
	epoch  atomic.Uint64

	// layouts maps each class name to its trigger-slot layout (see
	// layout.go); copy-on-write under layoutMu.
	layoutMu sync.Mutex
	layouts  atomic.Pointer[map[string]*Layout]

	// egress is the durable firing feed (see egress.go): records are
	// reserved sequence numbers before the WAL write and resolved after
	// it, recovered alongside the object heap at Open.
	egress egressLog
}

func (s *Store) stripeOf(oid OID) *stripe {
	return &s.stripes[uint64(oid)%numStripes]
}

// Open returns a store rooted at dir. With dir == "" the store is
// purely in-memory ("volatile memory" in the paper's terms). Otherwise
// the snapshot and WAL in dir are loaded and replayed, and subsequent
// committed transactions are appended to the WAL.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit Options.
func OpenWith(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, egress: egressLog{nameIDs: map[firingName]uint32{}}}
	s.oidStep = opts.OIDStride
	if s.oidStep == 0 {
		s.oidStep = 1
	}
	base := opts.OIDBase
	if base == 0 {
		base = 1
	}
	s.nextOID.Store(base)
	s.layouts.Store(&map[string]*Layout{})
	for i := range s.stripes {
		s.stripes[i].objects = make(map[OID]*Record)
	}
	if dir == "" {
		s.initEpochView()
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
	if s.legacy {
		// Rewrite the directory in the current format before accepting a
		// commit, so no file ever holds both.
		if err := s.Checkpoint(); err != nil {
			s.Close()
			return nil, fmt.Errorf("store: upgrade directory format: %w", err)
		}
	}
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
// transaction commits (LogCommit).
func (s *Store) Create(class string, fields map[string]value.Value) *Record {
	oid := OID(s.nextOID.Add(s.oidStep) - s.oidStep)
	if fields == nil {
		fields = map[string]value.Value{}
	}
	r := &Record{OID: oid, Class: class, Fields: fields, layout: s.Layout(class)}
	st := s.stripeOf(oid)
	st.mu.Lock()
	st.objects[oid] = r
	st.mu.Unlock()
	return r
}

// Get returns the live record for oid. Callers mutate the record only
// while holding the object's transaction lock.
func (s *Store) Get(oid OID) (*Record, error) {
	st := s.stripeOf(oid)
	st.mu.RLock()
	r, ok := st.objects[oid]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: no object %d", oid)
	}
	return r, nil
}

// Exists reports whether oid names a live object.
func (s *Store) Exists(oid OID) bool {
	st := s.stripeOf(oid)
	st.mu.RLock()
	_, ok := st.objects[oid]
	st.mu.RUnlock()
	return ok
}

// Delete removes the object from the heap. The undo log keeps aborted
// deletes reversible via Restore.
func (s *Store) Delete(oid OID) error {
	st := s.stripeOf(oid)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.objects[oid]; !ok {
		return fmt.Errorf("store: no object %d", oid)
	}
	delete(st.objects, oid)
	return nil
}

// Snapshot returns a copy of the live record with its own trigger
// slots. It shares the record's Fields map only if the record already
// shares it — SetField copies it before the record's next write — and
// copies it otherwise, so the live record is left as it was.
func (s *Store) Snapshot(oid OID) (*Record, error) {
	st := s.stripeOf(oid)
	st.mu.RLock()
	r, ok := st.objects[oid]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: no object %d", oid)
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
// active in both, State and Shadow — never Active or Params — are copied
// from it over the copy. Restore
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
			if to.Active && from.Active && (to.State != from.State || !slices.Equal(to.Shadow(), from.Shadow())) {
				to.State = from.State
				to.ext = newExt(to.Params(), slices.Clone(from.Shadow()))
				kept = true
			}
		}
	}
	st := s.stripeOf(img.OID)
	st.mu.Lock()
	st.objects[img.OID] = rec
	st.mu.Unlock()
	return rec, kept
}

// Remove unconditionally deletes oid if present; used to undo an
// aborted creation.
func (s *Store) Remove(oid OID) {
	st := s.stripeOf(oid)
	st.mu.Lock()
	delete(st.objects, oid)
	st.mu.Unlock()
}

// Count returns the number of live objects.
func (s *Store) Count() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.objects)
		st.mu.RUnlock()
	}
	return n
}

// OIDs returns the identities of all live objects, unordered. Stripes
// are visited in index order, but each is snapshotted independently.
func (s *Store) OIDs() []OID {
	var out []OID
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for oid := range st.objects {
			out = append(out, oid)
		}
		st.mu.RUnlock()
	}
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
// committed image of every touched object that changed (see
// Record.image), logs those images, the deletions and the firings as
// one WAL batch, and — only if that succeeded — publishes the images
// to the epoch view by pointer swap. The caller must hold the objects'
// transaction locks. A touched object that is content-equal to its
// committed image is not dirty: nothing is built, logged or published
// for it, and a commit with no dirty object, no deletion and no firing
// writes no WAL batch and does no Sync. On error nothing was
// published and the caller rolls back.
func (s *Store) Commit(txID uint64, touched []Touched, deleted []OID, firings []FiringRecord) error {
	dirty := nextImages(touched)
	if err := s.logCommit(txID, touched, dirty, deleted, firings); err != nil {
		return err
	}
	s.publish(touched, dirty, deleted)
	return nil
}

// LogCommit durably records a committed transaction as one WAL frame:
// the dirty surviving objects, the deleted ones and the firings. The
// frame is encoded into one pooled buffer and handed to the WAL's group
// committer, which coalesces concurrent commits into a single write and
// Sync. For volatile stores only the egress feed is updated (nothing is
// logged). The live records are encoded in place: the committing
// transaction still holds their locks.
//
// firings, when non-empty, are the trigger firings the transaction
// captured: they are stamped with consecutive feed sequence numbers
// here — before the WAL write, so the numbers are inside the durable
// frame and survive recovery unchanged — and become visible on the feed
// only if the commit succeeds.
func (s *Store) LogCommit(txID uint64, dirty []OID, deleted []OID, firings []FiringRecord) error {
	var recs []Touched
	if s.dir != "" {
		for _, oid := range dirty {
			// Absent: deleted later in the same transaction.
			if r, err := s.Get(oid); err == nil {
				recs = append(recs, Touched{Next: r})
			}
		}
	}
	return s.logCommit(txID, recs, len(recs), deleted, firings)
}

// logCommit writes one transaction's WAL frame from the dirty entries'
// Next: records nobody can mutate while it runs — immutable images
// (Commit) or live records whose locks the caller holds (LogCommit).
func (s *Store) logCommit(txID uint64, touched []Touched, dirty int, deleted []OID, firings []FiringRecord) error {
	if dirty == 0 && len(deleted) == 0 && len(firings) == 0 {
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
	if s.wal == nil {
		if len(firings) > 0 {
			s.egress.resolveOK(lo, firings)
		}
		return nil
	}
	// The encoder goes back to the pool only after wal.commit returns: a
	// follower's frame is read by the group-commit leader until then.
	enc := encoders.Get().(*encoder)
	recs := enc.recs[:0]
	for i := range touched {
		if next := touched[i].Next; next != nil {
			recs = append(recs, next)
		}
	}
	frame, err := enc.tx(txID, recs, deleted, firings)
	clear(recs) // a pooled encoder must not keep images alive
	enc.recs = recs
	reclaim := err != nil // it did not encode: nothing was written
	if err == nil {
		err = s.wal.commit(frame)
		reclaim = nothingWritten(err)
	}
	encoders.Put(enc)
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
	return err
}

// Checkpoint writes a full snapshot and truncates the WAL. It is a
// no-op for volatile stores.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil
	}
	// Exclude committers first (walMu), then freeze the heap (all
	// stripes, in index order) — the same walMu → stripe order
	// LogCommit uses.
	s.walMu.Lock()
	defer s.walMu.Unlock()
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	// walMu is held exclusively, so no commit is in flight and the
	// egress log has no pending reservation: the snapshot captures the
	// complete feed, and the WAL reset below may discard its frames.
	err := s.writeSnapshot()
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.Unlock()
	}
	if err != nil {
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
// committed transaction. Each file is read in the format its first
// bytes announce; one in the legacy format marks the store for rewriting
// (see OpenWith).
func (s *Store) recover() error {
	snapData, err := readStoreFile(s.dir, snapshotName)
	if err != nil {
		return err
	}
	var snap snapshotState
	format, err := formatOf(snapData, snapMagic)
	switch {
	case err != nil:
	case format == formatCurrent:
		snap, err = s.loadSnapshot(snapData)
	case format == formatLegacy:
		s.legacy = true
		snap, err = s.legacySnapshot(snapData)
	case format == formatTornHeader:
		err = fmt.Errorf("store: snapshot corrupt: %d-byte file", len(snapData))
	}
	if err != nil {
		return err
	}
	if s.recovery.SnapshotLoaded = snap.loaded; snap.loaded && uint64(snap.next) > s.nextOID.Load() {
		s.nextOID.Store(uint64(snap.next))
	}

	// Rebuild the egress feed: the snapshot's records plus the firings of
	// the logged transactions. A crash between writeSnapshot and the WAL
	// reset leaves frames the snapshot already absorbed, so firings at or
	// below the snapshot's FiringSeq are duplicates and dropped.
	firingSeq := snap.firingSeq
	apply := func(tx *txImage) {
		s.recovery.TxApplied++
		for _, r := range tx.recs {
			s.install(r)
		}
		for _, oid := range tx.deleted {
			delete(s.stripeOf(oid).objects, oid)
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
	switch format, err = formatOf(walData, walMagic); {
	case err != nil:
		return err
	case format == formatLegacy:
		s.legacy = true
		var frames []frame
		frames, sc, reason = legacyScanWAL(walData)
		txs, err := s.legacyTxs(frames)
		if err != nil {
			return err
		}
		s.recovery.WALFrames = len(frames)
		for i := range txs {
			apply(&txs[i])
		}
	case format != formatEmpty:
		sc, reason = s.scanWAL(walData, apply)
		s.recovery.WALFrames = s.recovery.TxApplied
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

// install puts one recovered committed record into the heap and bumps
// the OID allocator past it (by the store's stride — recovered OIDs are
// always in this store's residue class). Runs single-threaded at Open.
func (s *Store) install(r *Record) {
	s.stripeOf(r.OID).objects[r.OID] = r
	if uint64(r.OID) >= s.nextOID.Load() {
		s.nextOID.Store(uint64(r.OID) + s.oidStep)
	}
}
