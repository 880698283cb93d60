package obs

import "sync"

// ProvStep is one recorded automaton transition of one trigger
// instance: the happening (by interned kind ID and transaction), the
// §5 mask valuation it produced, the alphabet symbol, and the from→to
// state move. A chain of ProvSteps whose states link up is a firing's
// provenance — the exact happening sequence that drove the automaton
// from its start state to acceptance.
type ProvStep struct {
	// Seq is the ring-assigned step number (monotone per instance,
	// survives overwrites).
	Seq  uint64 `json:"seq"`
	TxID uint64 `json:"tx,omitempty"`
	AtNs int64  `json:"at_ns"`
	// KindID is the interned happening-kind name; Kind is resolved
	// from it at query time (Append never touches strings, and the ring
	// does not store one).
	KindID uint16 `json:"-"`
	Kind   string `json:"kind,omitempty"`
	// Bits is the §5 mask valuation, Sym the resulting class-alphabet
	// symbol.
	Bits uint32 `json:"mask_bits"`
	Sym  int    `json:"symbol"`
	// From and To are the automaton states around the transition;
	// Accepted reports whether To accepts (the trigger fired).
	From     int  `json:"from"`
	To       int  `json:"to"`
	Accepted bool `json:"accepted"`
}

// DefaultProvDepth is the per-(object, trigger) ring depth used when
// NewProvRing is given a non-positive capacity. Provenance records
// only state-changing (or accepting) transitions, so a small ring
// spans a long happening history.
const DefaultProvDepth = 32

// provCell is a ProvStep as the ring stores it: everything but Kind.
// With no pointer in it the ring's backing array is one the garbage
// collector never scans — there is a ring per (object, trigger), so on a
// large heap they are most of what a mark phase would otherwise walk.
type provCell struct {
	seq, txID uint64
	atNs      int64
	sym       int
	from, to  int
	bits      uint32
	kindID    uint16
	accepted  bool
}

// ProvRing is a fixed-capacity ring of the most recent ProvSteps of
// one trigger instance. Append is allocation-free (the buffer is laid
// down once); all methods are safe for concurrent use.
type ProvRing struct {
	mu  sync.Mutex
	buf []provCell
	seq uint64 // steps ever appended; next step's 1-based number
}

// NewProvRing returns a ring retaining the last capacity steps
// (<= 0 picks DefaultProvDepth).
func NewProvRing(capacity int) *ProvRing {
	if capacity <= 0 {
		capacity = DefaultProvDepth
	}
	return &ProvRing{buf: make([]provCell, capacity)}
}

// Append records one step, assigning its sequence number. s.Kind is
// not kept: readers resolve KindID.
func (r *ProvRing) Append(s ProvStep) {
	r.mu.Lock()
	r.seq++
	r.buf[int((r.seq-1)%uint64(len(r.buf)))] = provCell{
		seq: r.seq, txID: s.TxID, atNs: s.AtNs, sym: s.Sym, from: s.From, to: s.To,
		bits: s.Bits, kindID: s.KindID, accepted: s.Accepted,
	}
	r.mu.Unlock()
}

// Reset clears the ring — called when the instance's automaton
// restarts (trigger re-activation), since provenance of the previous
// incarnation no longer explains the current state.
func (r *ProvRing) Reset() {
	r.mu.Lock()
	clear(r.buf)
	r.seq = 0
	r.mu.Unlock()
}

// Steps returns the retained steps in chronological order, Kind unset.
func (r *ProvRing) Steps() []ProvStep {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.seq < n {
		n = r.seq
	}
	out := make([]ProvStep, 0, n)
	for seq := r.seq - n + 1; seq <= r.seq; seq++ {
		c := &r.buf[int((seq-1)%uint64(len(r.buf)))]
		out = append(out, ProvStep{
			Seq: c.seq, TxID: c.txID, AtNs: c.atNs, KindID: c.kindID, Bits: c.bits, Sym: c.sym,
			From: c.from, To: c.to, Accepted: c.accepted,
		})
	}
	return out
}

// Total reports how many steps were ever appended (including ones the
// ring has overwritten).
func (r *ProvRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
