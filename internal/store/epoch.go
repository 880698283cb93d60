package store

import (
	"sync"
	"sync/atomic"
)

// Epoch-based copy-on-write committed view.
//
// The live object heap (stripes) holds records that in-flight
// transactions mutate in place under object locks; reading it
// consistently requires going through the lock manager. The epoch view
// is a second, lock-free index over the same objects that holds only
// *committed* versions: one immutable image per object, the single
// copy of its last committed state. Three consumers share it instead of
// each cloning the record: the transaction manager's undo log (a
// before-image is a pointer to the image, see txn.undoEntry), the WAL
// encoder (Commit logs the images it is about to publish) and lock-free
// readers — Explain, `/debug` introspection — which load two atomic
// pointers and never touch a lock, so they cannot stall a writer and a
// writer cannot stall them.
//
// Image life-cycle. The invariant everything rests on: an object no
// active transaction holds is content-equal to its image. Commit keeps
// it by building, for every touched object that changed, the next
// image from the live record and the previous image (Record.image:
// trigger slots that did not move are shared with the predecessor),
// logging those images, and swapping them in while the committer still
// holds its object locks. Rollback keeps it by copying the image's
// trigger slots back into the heap (Restore), recovery by seeding the
// view (seedEpochView). An image and its live record share one Fields
// map: the record copies it before its first write after the commit,
// rollback or recovery (Record.SetField, the only write path), so a
// field map an image holds is never written. A touched object that is
// still content-equal to its image is not dirty: it gets no new image,
// no WAL record and no publication.
//
// Structure: one epochStripe per heap stripe. Each stripe holds an
// atomic pointer to an immutable map[OID] → cell, where a cell is an
// atomic pointer to the object's current image. Updating an existing
// object swaps the cell's pointer (no map copy, no mutex); creating or
// deleting an object copies the stripe's map — the slow path, paid once
// per object lifetime rather than once per commit. A per-stripe publish
// mutex serializes map rebuilds; readers never take it.
//
// Consistency contract: a published version is a complete committed
// state of its object (images are built under the committer's object
// locks and published after the WAL append succeeded), and per object
// the view steps monotonically through the object's commit history — a
// reader can never observe version n after having observed version n+1,
// and never observes uncommitted or aborted writes. Across objects the
// view is updated one object at a time, so a reader racing a
// multi-object commit may see some of its objects already updated and
// others not yet — the same read-committed granularity the lock-based
// Get path offers between two separate calls.
type epochStripe struct {
	pubMu sync.Mutex
	cells atomic.Pointer[map[OID]*atomic.Pointer[Record]]
}

// initEpochView installs empty committed maps; called at Open before
// the store is shared.
func (s *Store) initEpochView() {
	for i := range s.epochs {
		m := make(map[OID]*atomic.Pointer[Record])
		s.epochs[i].cells.Store(&m)
	}
}

// seedEpochView publishes an image of every recovered record as its
// object's committed version. Runs single-threaded at Open, after recover():
// everything the heap holds at that point came from committed WAL
// frames or the checkpoint snapshot.
func (s *Store) seedEpochView() {
	for i := range s.stripes {
		st := &s.stripes[i]
		m := make(map[OID]*atomic.Pointer[Record], len(st.objects))
		for oid, r := range st.objects {
			cell := new(atomic.Pointer[Record])
			cell.Store(r.image(nil))
			m[oid] = cell
		}
		s.epochs[i].cells.Store(&m)
	}
}

// nextImages builds the next committed image of each touched object
// that changed since its previous image into the entry's Next and
// reports how many did. The caller holds the objects' transaction locks,
// so the live records cannot move under the comparison.
func nextImages(touched []Touched) (dirty int) {
	for i := range touched {
		t := &touched[i]
		if img := t.Rec.image(t.Prev); img != t.Prev {
			t.Next = img
			dirty++
		}
	}
	return dirty
}

// PublishCommitted makes the current live state of the dirty objects,
// and the absence of the deleted ones, visible to epoch readers. The
// caller must still hold the objects' transaction locks and must have
// already made the commit durable — this is the in-memory analogue of
// the WAL commit frame. The transaction manager commits through
// Store.Commit, which logs and publishes the same images; this entry
// point serves callers that log separately.
func (s *Store) PublishCommitted(dirty, deleted []OID) {
	touched := s.touchedOf(dirty)
	s.publish(touched, nextImages(touched), deleted)
}

// touchedOf looks up what a transaction would have handed Commit for
// these objects; ones no longer in the heap (deleted later in the same
// transaction) are left out.
func (s *Store) touchedOf(oids []OID) []Touched {
	touched := make([]Touched, 0, len(oids))
	for _, oid := range oids {
		if r, err := s.Get(oid); err == nil {
			prev, _ := s.GetCommitted(oid)
			touched = append(touched, Touched{Rec: r, Prev: prev})
		}
	}
	return touched
}

// publish installs the dirty next images and removes the deleted objects,
// then advances the epoch counter — once, and only if the view changed.
func (s *Store) publish(touched []Touched, dirty int, deleted []OID) {
	// Objects already in the view take the fast path: swap the cell's
	// pointer, without pubMu — cells survive map rebuilds (a rebuild
	// copies the pointers) and only this object's lock holder can add or
	// remove its cell. Objects new to the view are deferred per epoch
	// stripe and inserted in one map rebuild per stripe below, so a
	// transaction creating k objects in a stripe pays one copy instead
	// of k (publishing a bulk load one object at a time is quadratic).
	var missing [][]*Record
	for _, t := range touched {
		img := t.Next
		if img == nil {
			continue
		}
		i := uint64(img.OID) % numStripes
		if cell, ok := (*s.epochs[i].cells.Load())[img.OID]; ok {
			cell.Store(img)
			continue
		}
		if missing == nil {
			missing = make([][]*Record, numStripes)
		}
		missing[i] = append(missing[i], img)
	}
	for i, add := range missing {
		if len(add) == 0 {
			continue
		}
		es := &s.epochs[i]
		es.pubMu.Lock()
		cur := *es.cells.Load()
		next := make(map[OID]*atomic.Pointer[Record], len(cur)+len(add))
		for k, v := range cur {
			next[k] = v
		}
		for _, img := range add {
			cell := new(atomic.Pointer[Record])
			cell.Store(img)
			next[img.OID] = cell
		}
		es.cells.Store(&next)
		es.pubMu.Unlock()
	}
	changed := dirty > 0
	for _, oid := range deleted {
		es := &s.epochs[uint64(oid)%numStripes]
		es.pubMu.Lock()
		cur := *es.cells.Load()
		if _, ok := cur[oid]; ok {
			next := make(map[OID]*atomic.Pointer[Record], len(cur))
			for k, v := range cur {
				if k != oid {
					next[k] = v
				}
			}
			es.cells.Store(&next)
			changed = true
		}
		es.pubMu.Unlock()
	}
	if changed {
		s.epoch.Add(1)
	}
}

// Epoch returns the number of commits that changed the view so far.
// Two equal Epoch readings around a set of GetCommitted calls prove no
// commit was published in between.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// GetCommitted returns the latest committed version of oid without
// taking any lock: two atomic loads. The returned record is the
// object's shared immutable image — callers must treat it as
// read-only. ok is false for objects that have never committed
// (including objects created by still-running transactions) and for
// committed-deleted objects.
func (s *Store) GetCommitted(oid OID) (*Record, bool) {
	cur := *s.epochs[uint64(oid)%numStripes].cells.Load()
	cell, ok := cur[oid]
	if !ok {
		return nil, false
	}
	r := cell.Load()
	if r == nil {
		return nil, false
	}
	return r, true
}

// CommittedOIDs returns the identities of every object with a
// committed version, unordered, without locking. Stripes are read at
// independent instants, like OIDs.
func (s *Store) CommittedOIDs() []OID {
	var out []OID
	for i := range s.epochs {
		cur := *s.epochs[i].cells.Load()
		for oid := range cur {
			out = append(out, oid)
		}
	}
	return out
}
