package part

import (
	"cmp"
	"math"
	"slices"

	"ode/internal/store"
)

// The partitioned firing feed: each partition's engine produces its
// own durable, per-partition-sequenced egress log (riding that
// partition's WAL); the DB orders them into one total-order feed, a
// position index over the logs (16 bytes a record, no pointer): the
// records themselves stay in the logs, once.
//
// Two kinds of stability are on offer and it matters which is which:
//
//   - Record identity — (Part, Seq) and the idempotency key derived
//     from (trigger, object, seq) — is durable and absolute: assigned
//     before the partition's WAL write, recovered verbatim, identical
//     across any crash/restart schedule.
//
//   - Global feed positions are process-lifetime stable: live spans
//     take the next positions in durable-commit arrival order, and at
//     Open the recovered per-partition logs are merged deterministically
//     by (AtNs, Part, Seq) — the same tie-break the flight-recorder
//     merge uses — so replaying from position 0 after a restart is
//     reproducible (AtNs is when the happening occurred, so within a
//     partition that order need not follow Seq). Across a restart,
//     positions of records that were racing commits at crash time may
//     renumber; durable delivery cursors therefore store records
//     (identity), not positions, and re-derive the position at resume
//     via FiringPos.
//
// feedEntry locates one position's record.
type feedEntry struct {
	part uint32 // partition
	idx  uint32 // index in the partition's log
}

// appendFeed gives partition p's newly durable span the next positions
// (the engine sink calls it from the committing goroutine), then wakes
// the merged feed's readers.
func (db *DB) appendFeed(p int, sp store.FiringSpan) {
	db.feedMu.Lock()
	for i := sp.Lo; i < sp.Hi; i++ {
		db.feed = append(db.feed, feedEntry{uint32(p), uint32(i)})
		db.feedAt[p] = append(db.feedAt[p], uint64(len(db.feed)))
	}
	db.feedMu.Unlock()
	db.feedWake.Publish()
}

// seedFeed indexes the recovered per-partition logs at Open, merged by
// (AtNs, Part, Seq). Runs before the partition loops start.
func (db *DB) seedFeed() {
	type key struct {
		atNs int64
		seq  uint64
		feedEntry
	}
	var keys []key
	db.feedAt = make([][]uint64, len(db.parts))
	for p, pt := range db.parts {
		n := len(keys)
		pt.eng.Store().VisitFirings(0, math.MaxInt, func(i int, r store.FiringRecord) {
			keys = append(keys, key{r.AtNs, r.Seq, feedEntry{uint32(p), uint32(i)}})
		})
		db.feedAt[p] = make([]uint64, len(keys)-n)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.atNs, b.atNs), cmp.Compare(a.part, b.part), cmp.Compare(a.seq, b.seq))
	})
	db.feed = make([]feedEntry, len(keys))
	for i, k := range keys {
		db.feed[i] = k.feedEntry
		db.feedAt[k.part][k.idx] = uint64(i + 1)
	}
}

// FiringsAfter implements egress.Source over the merged feed:
// positions are 1-based. Each partition's records in the window are
// read from its log as one run of indexes and placed by position.
// limit <= 0 means no limit.
func (db *DB) FiringsAfter(after uint64, limit int) ([]store.FiringRecord, uint64) {
	db.feedMu.Lock()
	defer db.feedMu.Unlock()
	head := uint64(len(db.feed))
	if after >= head {
		return nil, head
	}
	end := head
	if limit > 0 {
		end = min(end, after+uint64(limit))
	}
	out := make([]store.FiringRecord, end-after)
	for p, pt := range db.parts {
		lo, hi := math.MaxInt, -1
		for _, e := range db.feed[after:end] {
			if int(e.part) == p {
				lo, hi = min(lo, int(e.idx)), max(hi, int(e.idx))
			}
		}
		at := db.feedAt[p]
		pt.eng.Store().VisitFirings(lo, hi+1, func(i int, r store.FiringRecord) {
			if pos := at[i]; pos > after && pos <= end {
				out[pos-after-1] = r
			}
		})
	}
	return out, head
}

// FiringHead implements egress.Source: the merged feed length.
func (db *DB) FiringHead() uint64 {
	db.feedMu.Lock()
	defer db.feedMu.Unlock()
	return uint64(len(db.feed))
}

// FiringPos implements egress.Source: the merged-feed position of the
// record with rec's (Part, Seq) identity, 0 if absent — a binary search
// of its partition's log, then the index.
func (db *DB) FiringPos(rec store.FiringRecord) uint64 {
	if rec.Part < 0 || rec.Part >= len(db.parts) {
		return 0
	}
	db.feedMu.Lock()
	defer db.feedMu.Unlock()
	at := db.feedAt[rec.Part]
	if i, ok := db.parts[rec.Part].eng.Store().FiringIndex(rec.Seq); ok && i < len(at) {
		return at[i]
	}
	return 0
}

// NotifyFirings implements egress.Source: appendFeed wakes ch.
func (db *DB) NotifyFirings(ch chan<- struct{}) func() { return db.feedWake.Add(ch) }
