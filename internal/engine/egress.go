package engine

import (
	"ode/internal/store"
)

// The durable firing egress feed, engine side. Firings are captured
// inside the posting transaction (fire(), post.go) and appended to the
// WAL atomically with the transaction's commit (store.LogCommit); the
// engine surfaces the feed for consumers (internal/egress) and relays
// newly durable batches to an optional live sink.

// FiringsAfter implements egress.Source over the engine's feed: up to
// max (<= 0: no limit) committed firing records with Seq > after, in
// sequence order, plus the feed head. The cursor is the Seq itself.
func (e *Engine) FiringsAfter(after uint64, max int) ([]store.FiringRecord, uint64) {
	return e.st.FiringsFrom(after, max)
}

// FiringHead implements egress.Source: the feed's visibility frontier.
func (e *Engine) FiringHead() uint64 { return e.st.FiringSeq() }

// FiringPos implements egress.Source: on a single engine the cursor
// position of a record is its sequence number.
func (e *Engine) FiringPos(rec store.FiringRecord) uint64 { return rec.Seq }

// NotifyFirings implements egress.Source: egressPublish wakes ch.
func (e *Engine) NotifyFirings(ch chan<- struct{}) func() { return e.feedWake.Add(ch) }

// SetFiringSink installs fn as the live-feed callback: it is invoked
// with each span of newly durable firing records, in sequence order,
// from the committing goroutine (keep it fast; read the records with
// Store().VisitFirings). Installing replaces the previous sink; nil
// uninstalls.
func (e *Engine) SetFiringSink(fn func(store.FiringSpan)) {
	if fn == nil {
		e.firingSink.Store(nil)
		return
	}
	e.firingSink.Store(&fn)
}

// egressPublish is the store-level sink: every span of newly durable
// firing records lands here, in sequence order. It records a flight
// event, wakes the feed's readers and relays to the user sink.
func (e *Engine) egressPublish(sp store.FiringSpan) {
	e.flightEgress(sp.First, sp.Last, sp.Hi-sp.Lo)
	e.feedWake.Publish()
	if fn := e.firingSink.Load(); fn != nil {
		(*fn)(sp)
	}
}
