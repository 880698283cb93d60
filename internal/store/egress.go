package store

import (
	"cmp"
	"slices"
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

// firingCell is a FiringRecord as the log keeps it: the numbers, and
// its (Part, Class, Trigger, Kind) as an index into the log's name
// table. It holds no pointer, so the collector never scans the feed.
type firingCell struct {
	Seq, TxID uint64
	OID       OID
	AtNs      int64
	name      uint32
}

// firingName is one (Part, Class, Trigger, Kind) ever fired.
type firingName struct {
	part                 int
	class, trigger, kind string
}

// FiringSpan names records that became visible together: log indexes
// [Lo, Hi), sequence numbers First through Last.
type FiringSpan struct {
	Lo, Hi      int
	First, Last uint64
}

// egressLog is the in-memory image of the firing feed. Appends happen
// under LogCommit's walMu.RLock, so multiple committers interleave:
// sequence numbers are reserved before the WAL write and resolved
// after it, and a record becomes visible to readers only once every
// lower-numbered reservation has resolved — otherwise a reader could
// observe seq 7 and conclude (wrongly) that seq 6 will never exist.
// Every reservation above the frontier is still pending, so a batch
// that resolves out of order lands above every visible record and
// visible records keep their indexes.
type egressLog struct {
	mu        sync.Mutex
	cells     []firingCell // resolved records, sorted by Seq
	names     []firingName // firingCell.name → tuple
	nameIDs   map[firingName]uint32
	nextSeq   uint64      // next sequence number to hand out (last reserved + 1; 1-based)
	published uint64      // highest seq visible to readers
	pending   []pendRange // reserved-but-unresolved ranges, ascending
	sink      func(FiringSpan)
	sunk      int        // cells[:sunk] have been handed to the sink
	emitMu    sync.Mutex // serializes sink calls so spans arrive in seq order
}

// pendRange is one in-flight reservation [lo, hi].
type pendRange struct {
	lo, hi uint64
}

// cell interns rec's names and returns its cell. Callers hold mu or
// run before the log is shared.
func (l *egressLog) cell(rec *FiringRecord) firingCell {
	k := firingName{rec.Part, rec.Class, rec.Trigger, rec.Kind}
	id, ok := l.nameIDs[k]
	if !ok {
		id = uint32(len(l.names))
		l.names = append(l.names, k)
		l.nameIDs[k] = id
	}
	return firingCell{Seq: rec.Seq, TxID: rec.TxID, OID: rec.OID, AtNs: rec.AtNs, name: id}
}

// record is the FiringRecord c holds; its strings are the name
// table's, so it allocates nothing.
func (l *egressLog) record(c *firingCell) FiringRecord {
	n := &l.names[c.name]
	return FiringRecord{Seq: c.Seq, TxID: c.TxID, OID: c.OID, Part: n.part,
		Class: n.class, Trigger: n.trigger, Kind: n.kind, AtNs: c.AtNs}
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
// and inserts its records at their place by Seq — an append unless a
// committer holding a higher reservation resolved first. Records whose
// every predecessor has also resolved become visible and are emitted
// to the sink in seq order.
func (l *egressLog) resolveOK(lo uint64, recs []FiringRecord) {
	l.mu.Lock()
	l.dropPending(lo)
	n := len(l.cells)
	at := sort.Search(n, func(i int) bool { return l.cells[i].Seq > lo })
	l.cells = slices.Grow(l.cells, len(recs))[:n+len(recs)]
	copy(l.cells[at+len(recs):], l.cells[at:n])
	for i := range recs {
		l.cells[at+i] = l.cell(&recs[i])
	}
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
// below the oldest still-pending reservation (the first: reserve hands
// out ascending ranges) is final.
func (l *egressLog) recomputePublished() {
	switch {
	case len(l.pending) > 0:
		l.published = l.pending[0].lo - 1
	case l.nextSeq > 0:
		l.published = l.nextSeq - 1
	}
}

// emit hands the span of newly-visible records to the sink. emitMu
// serializes concurrent resolvers so a later span can never overtake
// an earlier one.
func (l *egressLog) emit() {
	l.emitMu.Lock()
	defer l.emitMu.Unlock()
	l.mu.Lock()
	sink, sp := l.sink, FiringSpan{Lo: l.sunk, Hi: l.sunk}
	for sink != nil && sp.Hi < len(l.cells) && l.cells[sp.Hi].Seq <= l.published {
		sp.Hi++
	}
	if sp.Hi == sp.Lo {
		l.mu.Unlock()
		return
	}
	sp.First, sp.Last = l.cells[sp.Lo].Seq, l.cells[sp.Hi-1].Seq
	l.sunk = sp.Hi
	l.mu.Unlock()
	sink(sp)
}

// push adds recovered records in any order (recovery, before the log
// is shared); load sorts them.
func (l *egressLog) push(recs ...FiringRecord) {
	for i := range recs {
		l.cells = append(l.cells, l.cell(&recs[i]))
	}
}

// load finishes recovery once every record is pushed. seq is the
// highest sequence number ever issued. Group commit can interleave
// transactions in the log in an order that differs from sequence
// order; the feed is strictly seq-ordered.
func (l *egressLog) load(seq uint64) {
	l.mu.Lock()
	slices.SortFunc(l.cells, func(a, b firingCell) int { return cmp.Compare(a.Seq, b.Seq) })
	l.nextSeq = seq + 1
	l.published = seq
	l.pending = nil
	l.sunk = len(l.cells)
	l.mu.Unlock()
}

// visible returns how many cells readers may see: those up to the
// frontier, a prefix since cells are sorted by Seq.
func (l *egressLog) visible() int {
	return sort.Search(len(l.cells), func(i int) bool { return l.cells[i].Seq > l.published })
}

// frozen returns the resolved records and the highest issued seq for
// checkpointing. The caller holds walMu exclusively, so nothing resolves
// while it reads the cells and names outside mu.
func (l *egressLog) frozen() ([]firingCell, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cells, max(l.nextSeq, 1) - 1
}

// FiringsFrom returns up to max firing records with Seq > after from
// the durable egress feed, plus the current feed head. Only records
// whose durability is settled are returned: a record written by a
// still-in-flight group commit stays invisible until every earlier
// sequence number has resolved. max <= 0 means no limit.
func (s *Store) FiringsFrom(after uint64, max int) ([]FiringRecord, uint64) {
	l := &s.egress
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.cells), func(i int) bool { return l.cells[i].Seq > after })
	j := l.visible()
	if max > 0 {
		j = min(j, i+max)
	}
	if i >= j {
		return nil, l.published
	}
	out := make([]FiringRecord, j-i)
	for k := range out {
		out[k] = l.record(&l.cells[i+k])
	}
	return out, l.published
}

// VisitFirings calls fn with each visible record at a log index in
// [lo, hi), in index (Seq) order, under the log's lock: fn must not
// call back into the store. A visible record's index never changes.
func (s *Store) VisitFirings(lo, hi int, fn func(i int, rec FiringRecord)) {
	l := &s.egress
	l.mu.Lock()
	defer l.mu.Unlock()
	hi = min(hi, l.visible())
	for i := lo; i < hi; i++ {
		fn(i, l.record(&l.cells[i]))
	}
}

// FiringIndex returns the log index of the record with sequence number
// seq, or false if the log holds none.
func (s *Store) FiringIndex(seq uint64) (int, bool) {
	l := &s.egress
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.cells), func(i int) bool { return l.cells[i].Seq >= seq })
	return i, i < len(l.cells) && l.cells[i].Seq == seq
}

// FiringSeq returns the highest firing sequence number visible to
// readers.
func (s *Store) FiringSeq() uint64 {
	s.egress.mu.Lock()
	defer s.egress.mu.Unlock()
	return s.egress.published
}

// FiringsAppended returns the total firing records appended (resolved
// durable) since the store opened, including recovered ones.
func (s *Store) FiringsAppended() uint64 {
	s.egress.mu.Lock()
	defer s.egress.mu.Unlock()
	return uint64(len(s.egress.cells))
}

// SetFiringSink installs fn as the live-feed callback: it is invoked
// with each span of newly-visible firing records, in sequence order,
// outside the store's internal locks (VisitFirings reads them). One
// sink only; installing replaces the previous. Records already
// resolved are not replayed: callers backfill via FiringsFrom first,
// then rely on the sink for the tail.
func (s *Store) SetFiringSink(fn func(FiringSpan)) {
	s.egress.mu.Lock()
	defer s.egress.mu.Unlock()
	s.egress.sunk = len(s.egress.cells)
	s.egress.sink = fn
}
