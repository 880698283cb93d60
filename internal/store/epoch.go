package store

// Epoch-based committed view.
//
// Live records are what in-flight transactions mutate in place under
// object locks. The committed view holds one immutable image per object,
// the single copy of its last committed state, shared by the undo log (a
// before-image is a pointer to it, see txn.undoEntry), the WAL encoder,
// the checkpoint and lock-free readers (Explain, `/debug`), which never
// take a lock, so they cannot stall a writer and a writer cannot stall
// them.
//
// Image life-cycle. An object no active transaction holds is
// content-equal to its image. Commit keeps that by building, for every
// touched object that changed, the next image from the live record and
// the previous image (Record.image), logging and publishing it under the
// object's lock; rollback by copying the image back into the heap
// (Restore); recovery by seeding the view (seedEpochView). An image and
// its live record share one Fields map, which the record copies before
// its first write (Record.SetField), so an image's map is never written.
//
// Structure: the image is the second pointer of the object's table slot
// (table.go). Publishing stores the images and advances the epoch
// counter — no copy, no lock beyond walMu's read side, which the commit
// holds from its WAL append through the publication. A committed
// deletion clears the image; a slot whose object is gone for good holds
// the tombstone. Per object the view steps monotonically through the
// commit history and never shows uncommitted or aborted writes; across
// objects it is updated one object at a time — the read-committed
// granularity of two separate Get calls.

// seedEpochView publishes an image of every record recovery installed,
// all of them committed, and buries the slots below the allocator that
// hold none. Runs single-threaded at Open, after recover().
func (s *Store) seedEpochView() {
	next := OID(s.nextOID.Load())
	if k, _ := s.tab.index(next); k%chunkSize != 0 {
		s.tab.grow(next) // the chunk allocation resumes in, so its slots below next die
	}
	s.tab.each(func(oid OID, sl *slot) {
		if r := sl.live.Load(); r != nil {
			sl.img.Store(r.image(nil))
		} else {
			s.tab.bury(oid, next)
		}
	})
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

// PublishCommitted publishes the live state of the dirty objects and
// the absence of the deleted ones, for callers that made the commit
// durable themselves and still hold the objects' locks.
func (s *Store) PublishCommitted(dirty, deleted []OID) {
	touched := s.touchedOf(dirty)
	nextImages(touched)
	s.walMu.RLock()
	s.publish(touched, deleted)
	s.walMu.RUnlock()
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

// publish installs the touched objects' next images and buries the
// deleted objects, then advances the epoch counter — once, and only if
// the view changed. The caller holds walMu's read side and the objects'
// locks, so nobody else stores into their slots meanwhile.
func (s *Store) publish(touched []Touched, deleted []OID) {
	changed := false
	for _, t := range touched {
		if img := t.Next; img != nil && img != t.Prev {
			s.tab.slot(img.OID).img.Store(img) // the live record holds the slot
			changed = true
		}
	}
	for _, oid := range deleted {
		if sl := s.tab.slot(oid); sl != nil {
			if img := sl.img.Load(); img != nil && img != tombstone && sl.img.CompareAndSwap(img, nil) {
				changed = true
			}
			s.tab.bury(oid, OID(s.nextOID.Load()))
		}
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
// taking any lock: the object's shared immutable image, read-only to
// callers. ok is false for objects that never committed (those of
// still-running transactions included) and for committed-deleted ones.
func (s *Store) GetCommitted(oid OID) (*Record, bool) {
	if sl := s.tab.slot(oid); sl != nil {
		if r := sl.img.Load(); r != nil && r != tombstone {
			return r, true
		}
	}
	return nil, false
}

// CommittedOIDs returns the identities of every object with a
// committed version in ascending order, without locking. Each slot is
// read at its own instant, like OIDs.
func (s *Store) CommittedOIDs() []OID {
	var out []OID
	s.eachCommitted(func(r *Record) { out = append(out, r.OID) })
	return out
}

// eachCommitted calls fn on every committed image in ascending OID order.
func (s *Store) eachCommitted(fn func(*Record)) {
	s.tab.each(func(_ OID, sl *slot) {
		if r := sl.img.Load(); r != nil && r != tombstone {
			fn(r)
		}
	})
}
