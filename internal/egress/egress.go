package egress

import (
	"slices"
	"sync"
	"sync/atomic"

	"ode/internal/store"
)

// Source is a readable firing feed. Two implementations exist:
// *engine.Engine (positions are the records' own sequence numbers) and
// *part.DB (positions index the deterministically merged total-order
// feed across partitions; each record keeps its per-partition Seq).
// Positions are 1-based and strictly increasing; FiringsAfter(0, ...)
// reads from the beginning.
type Source interface {
	// FiringsAfter returns up to max records at positions > after, in
	// position order, plus the feed head (the highest position a
	// reader may currently see). max <= 0 means no limit.
	FiringsAfter(after uint64, max int) ([]store.FiringRecord, uint64)
	// FiringHead returns the feed head.
	FiringHead() uint64
	// FiringPos returns the position of rec in this source's cursor
	// domain (0 if the record is not on the feed).
	FiringPos(rec store.FiringRecord) uint64
	// NotifyFirings registers ch, a reader's 1-buffered channel, and
	// returns the function that unregisters it. After each span of
	// records becomes readable through FiringsAfter, the publishing
	// goroutine makes a non-blocking send on every registered channel:
	// a full channel already holds a wake its reader has not consumed,
	// so dropping the send loses nothing. A publication neither blocks
	// nor allocates, and costs one branch when nothing is registered.
	NotifyFirings(ch chan<- struct{}) (unregister func())
}

// Notifier is the wake list behind a Source's NotifyFirings. The list
// is copied on every registration change and read with one atomic load,
// so Publish takes no lock. The zero value is ready to use.
type Notifier struct {
	mu  sync.Mutex
	chs atomic.Pointer[[]chan<- struct{}]
}

// Add registers ch and returns the function that unregisters it.
func (n *Notifier) Add(ch chan<- struct{}) (unregister func()) {
	n.edit(func(l []chan<- struct{}) []chan<- struct{} { return append(l, ch) })
	return func() {
		n.edit(func(l []chan<- struct{}) []chan<- struct{} {
			return slices.DeleteFunc(l, func(c chan<- struct{}) bool { return c == ch })
		})
	}
}

// edit replaces the list with fn applied to a private copy of it.
func (n *Notifier) edit(fn func([]chan<- struct{}) []chan<- struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var l []chan<- struct{}
	if p := n.chs.Load(); p != nil {
		l = slices.Clone(*p)
	}
	l = fn(l)
	n.chs.Store(&l)
}

// Publish makes a non-blocking send on every registered channel. Call
// it after the published records are readable.
func (n *Notifier) Publish() {
	if p := n.chs.Load(); p != nil {
		for _, ch := range *p {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
}

// Subscription is a pull consumer over a Source: it streams historical
// records from its starting position and keeps returning new ones as
// commits append to the feed — backfill and live tail through the same
// Poll loop.
type Subscription struct {
	src Source
	pos uint64 // positions consumed through
}

// Subscribe opens a subscription whose first Poll returns the record
// at position from (0 and 1 both mean the beginning of the feed).
func Subscribe(src Source, from uint64) *Subscription {
	s := &Subscription{src: src}
	if from > 0 {
		s.pos = from - 1
	}
	return s
}

// Poll returns the next batch of records (up to max; <= 0 means all
// currently visible) and advances the subscription past them. An empty
// result means the subscription has caught up with the feed head.
func (s *Subscription) Poll(max int) []store.FiringRecord {
	recs, _ := s.src.FiringsAfter(s.pos, max)
	if len(recs) > 0 {
		s.pos = s.src.FiringPos(recs[len(recs)-1])
	}
	return recs
}

// Pos returns the position consumed through.
func (s *Subscription) Pos() uint64 { return s.pos }

// Lag returns how many positions the subscription trails the feed
// head.
func (s *Subscription) Lag() uint64 {
	head := s.src.FiringHead()
	if head <= s.pos {
		return 0
	}
	return head - s.pos
}
