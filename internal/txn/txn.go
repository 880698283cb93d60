package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/fault"
	"ode/internal/store"
	"ode/internal/value"
)

// Transaction states.
type State int

const (
	// Active: the transaction is running.
	Active State = iota
	// Committed: effects are durable and visible.
	Committed
	// Aborted: all effects have been undone.
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	default:
		return "aborted"
	}
}

// Errors reported by transaction operations.
var (
	// ErrNotActive is returned by operations on a finished transaction.
	ErrNotActive = errors.New("txn: transaction is not active")
	// ErrDependencyAborted is returned by Commit when a transaction
	// this one is commit-dependent on has aborted; the transaction is
	// aborted as required by the dependency semantics.
	ErrDependencyAborted = errors.New("txn: commit dependency aborted")
)

// Manager creates and coordinates transactions over one store.
type Manager struct {
	store  *store.Store
	locks  *lockManager
	single bool // single-writer mode: bypass the lock manager entirely
	nextID atomic.Uint64

	mu    sync.Mutex
	cond  *sync.Cond     // broadcast on any commit/abort, for dependency waits
	apply func([]Intent) // OnCommit's
}

// Intent is a change to the engine's timer schedule that takes effect if
// its transaction commits (Manager.OnCommit): trigger Slot of OID
// activated at instant At, deactivated, or gone with the object.
type Intent struct {
	OID  store.OID
	Slot int
	Op   IntentOp
	At   time.Time
}

// IntentOp is what an Intent does to the schedule.
type IntentOp uint8

const (
	Activate IntentOp = iota
	Deactivate
	Delete
)

// NewManager returns a transaction manager over s.
func NewManager(s *store.Store) *Manager { return NewManagerWith(s, nil) }

// NewManagerWith is NewManager with a fault-injection registry the
// lock manager consults at lock-acquire time (internal/fault). A nil
// registry — the production default — costs one branch per acquire.
func NewManagerWith(s *store.Store, faults *fault.Registry) *Manager {
	m := &Manager{store: s, locks: newLockManager(faults)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// OnCommit sets the function Commit hands the committed intents to, in
// recorded order, after logging the frame and before releasing the locks.
func (m *Manager) OnCommit(apply func([]Intent)) { m.apply = apply }

// Store returns the underlying object store.
func (m *Manager) Store() *store.Store { return m.store }

// SetSingleWriter switches the manager into single-writer mode: every
// lock acquisition becomes a no-op (Holds reports true, nothing is held
// to release), because exactly one goroutine — a partition's event
// loop — drives all transactions over this store, so mutual exclusion
// is structural rather than negotiated. Deadlocks cannot occur (there
// is never a second writer to wait for) and the LockAcquire fault
// point is not consulted (partitioned simulation injects WAL faults
// instead). Must be called before the manager is shared; it is not
// safe to toggle while transactions are in flight.
func (m *Manager) SetSingleWriter(on bool) { m.single = on }

// lock acquires oid for the transaction, noting a new grant in its held
// list, or is a no-op in single-writer mode. An OID without a store slot
// names no object, and there is nothing to lock.
func (tx *Tx) lock(oid store.OID) error {
	if tx.mgr.single {
		return nil
	}
	w := tx.mgr.store.LockWord(oid)
	if w == nil {
		return nil
	}
	if tx.tag == 0 {
		tx.tag = lockTags.Add(1)
	}
	granted, err := tx.mgr.locks.lock(tx.tag, oid, w)
	if granted {
		tx.held = append(tx.held, heldLock{oid, w})
	}
	return err
}

// heldLock is a lock a transaction was granted: the object and its word.
type heldLock struct {
	oid store.OID
	w   *atomic.Uint64
}

// finish records the outcome, releases the transaction's locks and wakes
// commit-dependency waiters.
func (tx *Tx) finish(s State) {
	tx.out = outcome{}
	tx.state.Store(int32(s))
	for _, l := range tx.held {
		tx.mgr.locks.release(tx.tag, l.oid, l.w)
	}
	tx.mgr.broadcast()
}

// Begin starts a transaction. A Tx must be used from a single
// goroutine.
type Tx struct {
	id  uint64
	tag uint64 // its lock words' holder (lockTags; 0 until its first lock)
	mgr *Manager

	state    atomic.Int32       // a State, read across goroutines
	accessed []store.OID        // first-access order
	touched  []store.Touched    // parallel to accessed: live record and before-image
	seen     map[store.OID]bool // objects in accessed, once it outgrows accessedBuf (nil until then)
	held     []heldLock         // locks granted (lock manager mode): accessed and peeked objects
	deleted  map[store.OID]bool // objects deleted by this transaction (nil until the first)
	deps     []*Tx              // commit dependencies (footnote 6)
	system   bool               // system transactions post no transaction events of their own
	phased   bool               // has begun an outcome phase: stays open after a failed frame
	ends     State              // how Commit ends it: Aborted once rolled back to its begin

	// snaps holds the before-image of each accessed object that had no
	// committed image — created by a bare Store.Create outside any
	// transaction (nil until the first). An entry of touched with neither
	// a Prev nor a snap is an object this transaction created.
	snaps map[store.OID]*store.Record

	// Inline backing for accessed, touched and held: a transaction over
	// a few objects — every timer delivery to one — grows none of them on
	// the heap, and answers "accessed already?" by scanning accessed
	// instead of keeping the seen map.
	accessedBuf [4]store.OID
	touchedBuf  [4]store.Touched
	heldBuf     [4]heldLock

	// firings are the trigger firings captured by the engine during
	// this transaction (AddFiring); Commit hands them to the store so
	// they ride the transaction's own WAL batch. Rollback discards
	// them with everything else.
	firings []store.FiringRecord
	intents []Intent

	out      outcome // the outcome phase, while it runs (BeginOutcome)
	marksBuf [8]mark // its marks' inline backing
}

// outcome is an outcome phase: its own id (0: none), its savepoint (the
// lengths of accessed, firings and intents), the steps it made before its
// first action (Mark) and, once sealed, the pre-savepoint objects' images
// as they stood at the savepoint (nil: deleted by then).
type outcome struct {
	id                         uint64
	accessed, firings, intents int
	marks                      []mark
	imgs                       []*store.Record
}

// mark is a trigger slot of rec as it stood before an automaton step.
type mark struct {
	rec  *store.Record
	slot int
	old  store.TrigState
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Tx {
	tx := &Tx{
		id:   m.nextID.Add(1),
		mgr:  m,
		ends: Committed,
	}
	tx.accessed, tx.touched, tx.held = tx.accessedBuf[:0], tx.touchedBuf[:0], tx.heldBuf[:0]
	return tx
}

// BeginSystem starts a "system" transaction: one that posts no
// transaction events of its own, which time events are delivered in.
// §5's system transaction posting "after tcommit" and "after tabort" is
// a transaction's own outcome phase (BeginOutcome).
func (m *Manager) BeginSystem() *Tx {
	tx := m.Begin()
	tx.system = true
	return tx
}

// ID returns the transaction identifier — its outcome phase's, in it,
// which is drawn later and so the greater.
func (tx *Tx) ID() uint64 { return max(tx.id, tx.out.id) }

// System reports whether this is a system transaction or in its outcome
// phase, which is §5's system transaction run inside this one.
func (tx *Tx) System() bool { return tx.system || tx.out.id != 0 }

// InOutcome reports whether the transaction is in its outcome phase.
func (tx *Tx) InOutcome() bool { return tx.out.id != 0 }

// State returns the transaction state.
func (tx *Tx) State() State { return State(tx.state.Load()) }

// Access locks oid for this transaction, records its before-image on
// first access, and returns the live record. first reports whether
// this is the transaction's first access to the object — the engine
// posts the "after tbegin" event to the object exactly then (paper
// §3.1: "posted to an object only immediately before the object is
// first accessed by the transaction").
//
// The before-image is recorded on first access rather than first write
// because even reads advance committed-view trigger state stored in
// the record. The image invariant makes it free: an object no active
// transaction holds is content-equal to its committed image in the
// store's epoch view and shares the image's Fields map until its next
// write — so the before-image is a pointer to that immutable image, a
// rollback (Store.Restore) copies only its trigger slots back into the
// heap, and Commit hands the store the same (record, image) pair to
// build the next image from. Only an object that was never committed —
// created by a bare Store.Create outside any transaction — is copied
// (snaps). Fields are written only through Record.SetField, which copies
// a shared map first, so no write through rec reaches an image.
// A repeat access to the latest first-accessed object, not deleted, is
// answered from its touched entry, whose record every rollback keeps live.
func (tx *Tx) Access(oid store.OID) (rec *store.Record, first bool, err error) {
	if tx.State() != Active {
		return nil, false, ErrNotActive
	}
	if n := len(tx.accessed); n > 0 && tx.accessed[n-1] == oid && !tx.deleted[oid] {
		return tx.touched[n-1].Rec, false, nil
	}
	if err := tx.lock(oid); err != nil {
		return nil, false, err
	}
	rec, err = tx.mgr.store.Get(oid)
	if err != nil {
		return nil, false, err
	}
	first = !tx.has(oid)
	if first {
		img, ok := tx.mgr.store.GetCommitted(oid)
		if !ok {
			snap, err := tx.mgr.store.Snapshot(oid)
			if err != nil {
				return nil, false, err
			}
			if tx.snaps == nil {
				tx.snaps = map[store.OID]*store.Record{}
			}
			tx.snaps[oid] = snap
		}
		tx.note(store.Touched{Rec: rec, Prev: img})
	}
	return rec, first, nil
}

// has reports whether oid is in accessed: a scan while the list fits its
// inline buffer, the seen map once it does not.
func (tx *Tx) has(oid store.OID) bool {
	if tx.seen != nil {
		return tx.seen[oid]
	}
	for _, o := range tx.accessed {
		if o == oid {
			return true
		}
	}
	return false
}

// note appends a first access to accessed and touched. The append that
// leaves the inline buffer builds the seen map, so the choice between
// scan and map follows the size of the set.
func (tx *Tx) note(t store.Touched) {
	if tx.seen == nil && len(tx.accessed) == len(tx.accessedBuf) {
		tx.seen = make(map[store.OID]bool, 2*len(tx.accessedBuf))
		for _, o := range tx.accessed {
			tx.seen[o] = true
		}
	}
	if tx.seen != nil {
		tx.seen[t.Rec.OID] = true
	}
	tx.accessed = append(tx.accessed, t.Rec.OID)
	tx.touched = append(tx.touched, t)
}

// Create allocates a new object owned by this transaction. The object
// is locked by the transaction and removed again if it aborts.
func (tx *Tx) Create(class string, fields map[string]value.Value) (*store.Record, error) {
	if tx.State() != Active {
		return nil, ErrNotActive
	}
	rec := tx.mgr.store.Create(class, fields)
	if err := tx.lock(rec.OID); err != nil {
		// Freshly created: the lock cannot contend, but stay defensive.
		tx.mgr.store.Remove(rec.OID)
		return nil, err
	}
	tx.note(store.Touched{Rec: rec})
	return rec, nil
}

// Delete removes oid within the transaction; an abort resurrects it.
func (tx *Tx) Delete(oid store.OID) error {
	if tx.State() != Active {
		return ErrNotActive
	}
	if _, _, err := tx.Access(oid); err != nil {
		return err
	}
	if err := tx.mgr.store.Delete(oid); err != nil {
		return err
	}
	if tx.deleted == nil {
		tx.deleted = map[store.OID]bool{}
	}
	tx.deleted[oid] = true
	return nil
}

// DependOn makes this transaction commit-dependent on other: Commit
// waits until other finishes, succeeds only if other committed, and
// aborts this transaction if other aborted.
func (tx *Tx) DependOn(other *Tx) {
	if other == nil || other == tx {
		return
	}
	tx.deps = append(tx.deps, other)
}

// Accessed returns the objects the transaction has touched, in first-
// access order — "the set of objects accessed by the transaction" that
// transaction events are posted to (paper §3.1). The result is a
// read-only view of the transaction's own list as of this call: later
// accesses append past its end and are not reflected in it.
func (tx *Tx) Accessed() []store.OID { return tx.accessed[:len(tx.accessed):len(tx.accessed)] }

// Live returns the live record of the i-th object in Accessed's order,
// whose lock the transaction holds, without a lock or store lookup: nil
// once a rollback has shortened the list below i, or the transaction
// deleted the object.
func (tx *Tx) Live(i int) *store.Record {
	if i >= len(tx.touched) || tx.deleted[tx.accessed[i]] {
		return nil
	}
	return tx.touched[i].Rec
}

// AddFiring records one trigger firing for the durable egress feed.
// The store stamps its Seq, and its TxID if unset, at commit; if the
// transaction aborts the record is dropped.
func (tx *Tx) AddFiring(fr store.FiringRecord) {
	tx.firings = append(tx.firings, fr)
}

// AddIntent records an intent; a rollback drops it like a firing.
func (tx *Tx) AddIntent(in Intent) { tx.intents = append(tx.intents, in) }

// Firings returns the firings captured so far (engine introspection).
func (tx *Tx) Firings() []store.FiringRecord { return tx.firings }

// Commit makes the transaction's effects durable in one frame, hands its
// intents to the OnCommit function and releases its locks. Once rolled
// back to its begin (Rollback, Abort), the frame holds what the rollback
// kept and what the outcome phase did, and the transaction ends Aborted.
// If a commit dependency aborted, it is rolled back to its begin and
// ErrDependencyAborted is returned. If the frame cannot be logged, the
// objects fall back to their plain before-images — what a crash before
// the frame would have left — and it ends Aborted. A transaction that has
// begun an outcome phase (BeginOutcome) is instead rolled back to its
// begin and left open under its locks, after a failed frame or an aborted
// dependency alike, so that its "after tabort" can still be posted.
func (tx *Tx) Commit() error {
	if tx.State() != Active {
		return ErrNotActive
	}
	cause := tx.waitForDeps()
	if cause != nil {
		if tx.rollback(outcome{}, true); tx.phased {
			return cause
		}
	}
	touched, deleted := tx.touched, []store.OID(nil)
	if len(tx.deleted) > 0 {
		touched = nil
		for i, oid := range tx.accessed {
			if tx.deleted[oid] {
				deleted = append(deleted, oid)
			} else {
				touched = append(touched, tx.touched[i])
			}
		}
	}
	// Log and publish while this transaction still holds its object
	// locks: the records cannot change under the store's comparison with
	// their committed images, and a reader that sees a new image sees
	// exactly the state the WAL just made durable.
	if err := tx.mgr.store.Commit(tx.id, touched, deleted, tx.firings); err != nil {
		err = errors.Join(cause, fmt.Errorf("txn: commit logging failed: %w", err))
		if tx.phased && tx.ends == Committed {
			tx.rollback(outcome{}, true)
			return err
		}
		tx.rollback(outcome{}, false)
		tx.finish(Aborted)
		return err
	}
	if len(tx.intents) > 0 && tx.mgr.apply != nil {
		tx.mgr.apply(tx.intents)
	}
	tx.finish(tx.ends)
	return cause
}

// BeginOutcome waits for the commit dependencies (rolling back to the
// begin with ErrDependencyAborted if one aborted), then starts the
// outcome phase (§5's system transaction, under this one's locks): a
// savepoint, its own id and the system role. Commit commits both parts in
// one frame; Rollback rolls the phase back alone.
func (tx *Tx) BeginOutcome() error {
	if tx.State() != Active {
		return ErrNotActive
	}
	tx.phased = true
	if err := tx.waitForDeps(); err != nil {
		tx.rollback(outcome{}, true)
		return err
	}
	tx.out = outcome{id: tx.mgr.nextID.Add(1), accessed: len(tx.accessed), firings: len(tx.firings), intents: len(tx.intents), marks: tx.marksBuf[:0]}
	return nil
}

// Mark notes rec's slot before an unsealed outcome phase steps it: all
// the phase writes before its first action.
func (tx *Tx) Mark(rec *store.Record, slot int) {
	if tx.out.id != 0 && tx.out.imgs == nil {
		tx.out.marks = append(tx.out.marks, mark{rec, slot, rec.Trigs[slot]})
	}
}

// Seal builds the savepoint's images before the outcome phase's first
// action; a no-op outside the phase or once done.
func (tx *Tx) Seal() {
	if tx.out.id == 0 || tx.out.imgs != nil {
		return
	}
	imgs := make([]*store.Record, tx.out.accessed)
	of := make(map[*store.Record]*store.Record, len(imgs))
	for i, t := range tx.touched[:len(imgs)] {
		imgs[i], _ = tx.mgr.store.Snapshot(t.Rec.OID) // nil: deleted
		of[t.Rec] = imgs[i]
	}
	for i := len(tx.out.marks) - 1; i >= 0; i-- {
		if m := tx.out.marks[i]; of[m.rec] != nil {
			of[m.rec].Trigs[m.slot] = m.old
		}
	}
	tx.out.imgs = imgs
}

// Rollback rolls the transaction back to its latest savepoint and leaves
// it active under its locks: in an outcome phase, the phase's, which ends
// the phase; otherwise its begin, after which Commit ends it Aborted.
func (tx *Tx) Rollback() {
	tx.Seal()
	tx.rollback(tx.out, true)
}

// Abort undoes every effect of the transaction and releases its locks:
// a rollback to its begin and the Commit of what that kept. Aborting a
// finished transaction is an error; any other error reports a frame that
// could not be logged (Commit) — the transaction is aborted regardless.
func (tx *Tx) Abort() error {
	if tx.State() != Active {
		return ErrNotActive
	}
	tx.rollback(outcome{}, true)
	return tx.Commit()
}

// rollback rolls the transaction back to sp: its begin (sp.id 0) or its
// outcome phase's sealed savepoint. Each object first accessed from the
// savepoint on is restored to its before-image in place and the earlier
// ones to sp's images; with keep, each keeps what its class layout keeps
// of the record rolled back (store.Restore: whole-history-view automaton
// state, §6), which the next Commit logs like any change, so nobody ever
// steps a stale slot and recovery needs to know nothing about aborts.
// Objects created since leave the lists and the store; objects without a
// committed image (a bare Store.Create's) leave the lists and keep what
// they keep in the heap record, unlogged. Firings and intents since are
// dropped.
func (tx *Tx) rollback(sp outcome, keep bool) {
	st := tx.mgr.store
	if sp.id == 0 {
		tx.ends, tx.deps = Aborted, nil
	}
	restore := func(img, live *store.Record) *store.Record {
		if !keep {
			live = nil
		}
		rec, _ := st.Restore(img, live)
		return rec
	}
	n := sp.accessed
	for i := sp.accessed; i < len(tx.accessed); i++ {
		oid, t := tx.accessed[i], tx.touched[i]
		delete(tx.deleted, oid)
		if t.Prev != nil {
			tx.accessed[n], tx.touched[n] = oid, store.Touched{Rec: restore(t.Prev, t.Rec), Prev: t.Prev}
			n++
			continue
		}
		if snap := tx.snaps[oid]; snap != nil {
			restore(snap, t.Rec)
		} else { // created since
			st.Remove(oid)
		}
		delete(tx.seen, oid)
	}
	tx.accessed, tx.touched = tx.accessed[:n], tx.touched[:n]
	for i, img := range sp.imgs {
		if img != nil {
			tx.touched[i] = store.Touched{Rec: restore(img, tx.touched[i].Rec), Prev: tx.touched[i].Prev}
			delete(tx.deleted, tx.accessed[i])
		}
	}
	tx.firings, tx.intents, tx.out = tx.firings[:sp.firings], tx.intents[:sp.intents], outcome{}
}

func (tx *Tx) waitForDeps() error {
	for _, dep := range tx.deps {
		tx.mgr.mu.Lock()
		for dep.State() == Active {
			tx.mgr.cond.Wait()
		}
		tx.mgr.mu.Unlock()
		if dep.State() == Aborted {
			return ErrDependencyAborted
		}
	}
	return nil
}

func (m *Manager) broadcast() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Holds reports whether the transaction currently holds oid's lock.
func (tx *Tx) Holds(oid store.OID) bool {
	if tx.mgr.single {
		return true
	}
	w := tx.mgr.store.LockWord(oid)
	return w != nil && tx.tag != 0 && w.Load()>>1 == tx.tag
}

// Peek locks oid and returns its live record without counting the
// access: no before-image, no entry in Accessed(), so no transaction
// events are posted to the object on its behalf. Mask evaluation uses
// it to read "the state of any object in the database" (paper §3.2)
// with isolation but without perturbing event histories. The caller
// must not mutate the record.
func (tx *Tx) Peek(oid store.OID) (*store.Record, error) {
	if tx.State() != Active {
		return nil, ErrNotActive
	}
	if err := tx.lock(oid); err != nil {
		return nil, err
	}
	return tx.mgr.store.Get(oid)
}

// PeekStep is Peek for one step: it locks oid, runs step on its live
// record — not at all if oid names no object — and releases the lock
// right after if this call granted it and step did not Access the
// object, which holds it no longer than a transaction of its own that
// changed nothing would. An object already held, or accessed, stays
// locked to the end. A lock this call granted was on an object not
// accessed before, so only the accesses step appended are searched (a
// step whose action aborted the transaction may have rolled them back).
func (tx *Tx) PeekStep(oid store.OID, step func(*store.Record) error) error {
	if tx.State() != Active {
		return ErrNotActive
	}
	a0, n := len(tx.accessed), len(tx.held)
	if err := tx.lock(oid); err != nil {
		return err
	}
	var err error
	if rec, gerr := tx.mgr.store.Get(oid); gerr == nil {
		err = step(rec)
	}
	if l := tx.held[n:]; len(l) > 0 && l[0].oid == oid && !slices.Contains(tx.accessed[min(a0, len(tx.accessed)):], oid) {
		tx.mgr.locks.release(tx.tag, oid, l[0].w)
		tx.held = append(tx.held[:n], l[1:]...)
	}
	return err
}
