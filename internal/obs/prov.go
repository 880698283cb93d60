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

// provFirstCells is the buffer a ring is born with; it doubles from
// there up to the ring's depth.
const provFirstCells = 4

// provCell is a ProvStep as the ring stores it: everything but Kind and
// Seq (a cell's step number follows from its position and the ring's
// count), with states and symbol narrowed to 32 bits — 40 bytes. With no
// pointer in it the ring's backing array is one the garbage collector
// never scans.
type provCell struct {
	txID          uint64
	atNs          int64
	sym, from, to int32
	bits          uint32
	kindID        uint16
	accepted      bool
}

// ProvCellBytes is what one retained step costs a ring: the size of a
// provCell (pinned by TestProvCellSize).
const ProvCellBytes = 40

// ProvRing retains the most recent ProvSteps of one trigger instance, up
// to its depth. It costs what the history it holds costs: no buffer
// until the first Append, then provFirstCells cells, doubling (capped at
// the depth) each time it fills. Until the buffer reaches the depth it
// never wraps, so growth is a plain copy and a ring at depth behaves as
// a fixed ring of that capacity; from there Append is allocation-free.
// All methods are safe for concurrent use.
type ProvRing struct {
	mu    sync.Mutex
	buf   []provCell
	seq   uint64 // steps ever appended; next step's 1-based number
	depth int
}

// NewProvRing returns an empty ring retaining the last capacity steps
// (<= 0 picks DefaultProvDepth).
func NewProvRing(capacity int) *ProvRing {
	if capacity <= 0 {
		capacity = DefaultProvDepth
	}
	return &ProvRing{depth: capacity}
}

// Append records one step, assigning its sequence number, and returns
// the bytes the buffer grew by — zero except at the ring's first step
// and its few doublings, so callers can account for provenance memory
// without a counter on this path. s.Kind is not kept: readers resolve
// KindID.
func (r *ProvRing) Append(s ProvStep) (grew int) {
	r.mu.Lock()
	if n := len(r.buf); r.seq == uint64(n) && n < r.depth {
		buf := make([]provCell, min(max(2*n, provFirstCells), r.depth))
		copy(buf, r.buf)
		grew = (len(buf) - n) * ProvCellBytes
		r.buf = buf
	}
	r.seq++
	r.buf[int((r.seq-1)%uint64(len(r.buf)))] = provCell{
		txID: s.TxID, atNs: s.AtNs, sym: int32(s.Sym), from: int32(s.From), to: int32(s.To),
		bits: s.Bits, kindID: s.KindID, accepted: s.Accepted,
	}
	r.mu.Unlock()
	return grew
}

// Reset empties the ring, keeping its buffer — called when the
// instance's automaton restarts (trigger re-activation), since
// provenance of the previous incarnation no longer explains the current
// state.
func (r *ProvRing) Reset() {
	r.mu.Lock()
	r.seq = 0
	r.mu.Unlock()
}

// Steps returns the retained steps in chronological order, Kind unset.
func (r *ProvRing) Steps() []ProvStep {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.seq, uint64(len(r.buf)))
	out := make([]ProvStep, 0, n)
	for seq := r.seq - n + 1; seq <= r.seq; seq++ {
		c := &r.buf[int((seq-1)%uint64(len(r.buf)))]
		out = append(out, ProvStep{
			Seq: seq, TxID: c.txID, AtNs: c.atNs, KindID: c.kindID, Bits: c.bits, Sym: int(c.sym),
			From: int(c.from), To: int(c.to), Accepted: c.accepted,
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

// Bytes reports the size of the ring's buffer.
func (r *ProvRing) Bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf) * ProvCellBytes
}
