package store

import (
	"sort"
	"sync"
)

// FiringRecord is one trigger firing as captured at commit time and
// appended to the durable egress feed. Seq is the logical, per-store
// sequence number (1-based, no wall-clock — logical ordering only);
// it is assigned before the WAL write and persisted inside the
// transaction's frame, so a record keeps its sequence number across crash
// recovery and the idempotency key derived from (Trigger, OID, Seq)
// is stable for the lifetime of the feed.
type FiringRecord struct {
	Seq     uint64
	TxID    uint64 // the stepping transaction (Commit stamps its own if 0)
	OID     OID
	Part    int // owning partition; stamped by the partitioned layer, 0 single-engine
	Class   string
	Trigger string
	Kind    string // happening kind ("after deposit", "before tcomplete", ...)
	AtNs    int64  // virtual-clock timestamp of the happening (informational)
}

// egressLog is the in-memory image of the firing feed. Appends happen
// under LogCommit's walMu.RLock, so multiple committers interleave:
// sequence numbers are reserved before the WAL write and resolved
// after it, and a record becomes visible to readers only once every
// lower-numbered reservation has resolved — otherwise a reader could
// observe seq 7 and conclude (wrongly) that seq 6 will never exist.
type egressLog struct {
	mu        sync.Mutex
	recs      []FiringRecord // resolved records, sorted by Seq
	nextSeq   uint64         // next sequence number to hand out (last reserved + 1; 1-based)
	published uint64         // highest seq visible to readers
	pending   []pendRange    // reserved-but-unresolved ranges, ascending
	appended  uint64         // total records resolved OK (monotone counter)
	sink      func([]FiringRecord)
	sunk      int        // recs[:sunk] have been handed to the sink
	emitMu    sync.Mutex // serializes sink calls so batches arrive in seq order
}

// pendRange is one in-flight reservation [lo, hi].
type pendRange struct {
	lo, hi uint64
}

// reserve hands out n consecutive sequence numbers and registers the
// range as pending. The caller must resolve it exactly once.
func (l *egressLog) reserve(n int) (lo uint64) {
	l.mu.Lock()
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	lo = l.nextSeq
	l.nextSeq += uint64(n)
	l.pending = append(l.pending, pendRange{lo: lo, hi: lo + uint64(n) - 1})
	l.mu.Unlock()
	return lo
}

// resolveOK marks the reservation starting at lo as durably written
// and inserts its records. Records whose every predecessor has also
// resolved become visible and are emitted to the sink in seq order.
func (l *egressLog) resolveOK(lo uint64, recs []FiringRecord) {
	l.mu.Lock()
	l.dropPending(lo)
	// Insert sorted by Seq. The common case — no concurrent committer
	// overtook us — is a pure append.
	if n := len(l.recs); n == 0 || l.recs[n-1].Seq < recs[0].Seq {
		l.recs = append(l.recs, recs...)
	} else {
		l.recs = append(l.recs, recs...)
		sort.Slice(l.recs, func(i, j int) bool { return l.recs[i].Seq < l.recs[j].Seq })
	}
	l.appended += uint64(len(recs))
	l.recomputePublished()
	l.mu.Unlock()
	l.emit()
}

// resolveFail abandons the reservation starting at lo. When reclaim
// is true the sequence numbers are handed back — legal only if the
// caller knows no byte of the frame reached the file AND the range is
// still the newest one reserved; otherwise the numbers are burned and
// the feed carries a permanent gap (consumers tolerate seq jumps; the
// idempotency key of every other firing is untouched).
func (l *egressLog) resolveFail(lo uint64, reclaim bool) {
	l.mu.Lock()
	hi := l.dropPending(lo)
	if reclaim && hi+1 == l.nextSeq && (len(l.pending) == 0 || l.pending[len(l.pending)-1].hi < lo) {
		l.nextSeq = lo
	}
	l.recomputePublished()
	l.mu.Unlock()
	l.emit()
}

// dropPending removes the pending range starting at lo, returning its
// hi bound.
func (l *egressLog) dropPending(lo uint64) (hi uint64) {
	for i, p := range l.pending {
		if p.lo == lo {
			hi = p.hi
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			return hi
		}
	}
	return 0
}

// recomputePublished advances the visibility frontier: everything
// below the oldest still-pending reservation is final.
func (l *egressLog) recomputePublished() {
	if len(l.pending) == 0 {
		if l.nextSeq > 0 {
			l.published = l.nextSeq - 1
		}
		return
	}
	min := l.pending[0].lo
	for _, p := range l.pending[1:] {
		if p.lo < min {
			min = p.lo
		}
	}
	l.published = min - 1
}

// emit hands newly-visible records to the sink in sequence order.
// emitMu serializes concurrent resolvers so a later batch can never
// overtake an earlier one; the records are copied so the sink never
// aliases the log's backing array.
func (l *egressLog) emit() {
	l.emitMu.Lock()
	defer l.emitMu.Unlock()
	l.mu.Lock()
	sink := l.sink
	if sink == nil {
		l.mu.Unlock()
		return
	}
	hi := l.sunk
	for hi < len(l.recs) && l.recs[hi].Seq <= l.published {
		hi++
	}
	if hi == l.sunk {
		l.mu.Unlock()
		return
	}
	batch := make([]FiringRecord, hi-l.sunk)
	copy(batch, l.recs[l.sunk:hi])
	l.sunk = hi
	l.mu.Unlock()
	sink(batch)
}

// load installs recovered records wholesale (recovery path, before any
// concurrent access). seq is the highest sequence number ever issued.
func (l *egressLog) load(recs []FiringRecord, seq uint64) {
	l.mu.Lock()
	l.recs = recs
	l.appended = uint64(len(recs))
	l.nextSeq = seq + 1
	l.published = seq
	l.pending = nil
	l.sunk = len(recs)
	l.mu.Unlock()
}

// from returns up to max visible records with Seq > after, plus the
// current visibility frontier. max <= 0 means no limit.
func (l *egressLog) from(after uint64, max int) ([]FiringRecord, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Binary search for the first visible record past `after`.
	i := sort.Search(len(l.recs), func(i int) bool { return l.recs[i].Seq > after })
	j := i
	for j < len(l.recs) && l.recs[j].Seq <= l.published && (max <= 0 || j-i < max) {
		j++
	}
	if i == j {
		return nil, l.published
	}
	out := make([]FiringRecord, j-i)
	copy(out, l.recs[i:j])
	return out, l.published
}

// head returns the visibility frontier (highest seq a reader may see).
func (l *egressLog) head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.published
}

// count returns the total records resolved OK since open.
func (l *egressLog) count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// snapshotState returns the visible records and the highest issued
// seq for checkpointing. The caller (Checkpoint) holds walMu
// exclusively, so no reservation can be pending.
func (l *egressLog) snapshotState() ([]FiringRecord, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]FiringRecord, len(l.recs))
	copy(out, l.recs)
	seq := uint64(0)
	if l.nextSeq > 0 {
		seq = l.nextSeq - 1
	}
	return out, seq
}

// setSink installs the live-feed callback. Records already resolved
// are not replayed; callers backfill via from() first, then rely on
// the sink for the tail.
func (l *egressLog) setSink(fn func([]FiringRecord)) {
	l.mu.Lock()
	l.sunk = len(l.recs)
	l.sink = fn
	l.mu.Unlock()
}

// FiringsFrom returns up to max firing records with Seq > after from
// the durable egress feed, plus the current feed head. Only records
// whose durability is settled are returned: a record written by a
// still-in-flight group commit stays invisible until every earlier
// sequence number has resolved.
func (s *Store) FiringsFrom(after uint64, max int) ([]FiringRecord, uint64) {
	return s.egress.from(after, max)
}

// FiringSeq returns the highest firing sequence number visible to
// readers.
func (s *Store) FiringSeq() uint64 { return s.egress.head() }

// FiringsAppended returns the total firing records appended (resolved
// durable) since the store opened, including recovered ones.
func (s *Store) FiringsAppended() uint64 { return s.egress.count() }

// SetFiringSink installs fn as the live-feed callback: it is invoked
// with each batch of newly-visible firing records, in sequence order,
// outside the store's internal locks. One sink only; installing
// replaces the previous.
func (s *Store) SetFiringSink(fn func([]FiringRecord)) { s.egress.setSink(fn) }
