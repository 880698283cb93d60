package obs

import "slices"

// ProvStep is one recorded automaton transition of one trigger
// instance: the happening (by interned kind ID and transaction), the
// §5 mask valuation it produced, the alphabet symbol, and the from→to
// state move. A chain of ProvSteps whose states link up is a firing's
// provenance — the exact happening sequence that drove the automaton
// from its start state to acceptance.
type ProvStep struct {
	// Seq is the step's 1-based number since the instance's reset
	// marker (or its object's first recorded cell); for a walk cut at
	// the journal's tail, since the oldest retained step.
	Seq  uint64 `json:"seq"`
	TxID uint64 `json:"tx,omitempty"`
	AtNs int64  `json:"at_ns"`
	// KindID is the interned happening-kind name; Kind is resolved
	// from it at query time (Append never touches strings, and the
	// journal does not store one).
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

// DefaultProvenanceBytes bounds an engine's provenance journals when
// its options leave the bound at zero.
const DefaultProvenanceBytes = 4 << 20

// provFirstCells is the buffer a journal is born with.
const provFirstCells = 16

// provCell is a ProvStep as the journal stores it: everything but Kind
// and Seq, with states and symbol narrowed to 32 bits, plus the
// instance's trigger slot, the reset-marker flag and the back-link to
// the same object's previous cell — 48 bytes. With no pointer in it the
// journal's backing array is one the garbage collector never scans.
type provCell struct {
	txID                uint64
	atNs                int64
	prev                uint64 // the object's previous cell's position + 1; 0: none
	sym, from, to, slot int32
	bits                uint32
	kindID              uint16
	accepted, reset     bool
}

// ProvCellBytes is what one retained step costs a journal: the size of
// a provCell (pinned by TestProvCellSize).
const ProvCellBytes = 48

// ProvJournal is the provenance of many objects in one bounded,
// pointer-free log of cells. Each object keeps one head, the position
// of its newest cell; each cell links back to the same object's
// previous one, so an object's history is a chain threaded through the
// log. The log is born with provFirstCells cells and doubles, by a plain
// copy before it has ever wrapped, up to its cap; from there it wraps,
// overwriting the oldest cells, and Append allocates nothing once the
// object has a head. A walk that reaches an overwritten position is cut
// there. Not safe for concurrent use: the caller serializes.
type ProvJournal struct {
	cells []provCell
	max   int    // cell cap
	next  uint64 // cells ever written: the next cell's position
	heads map[uint64]uint64
}

// NewProvJournal returns an empty journal of at most bytes (at least
// one cell).
func NewProvJournal(bytes int) *ProvJournal {
	return &ProvJournal{max: max(bytes/ProvCellBytes, 1), heads: map[uint64]uint64{}}
}

// Append records step s (but not its Kind or Seq) of obj's instance in
// slot.
func (j *ProvJournal) Append(obj uint64, slot int, s ProvStep) {
	j.put(obj, provCell{
		txID: s.TxID, atNs: s.AtNs, prev: j.heads[obj], sym: int32(s.Sym), from: int32(s.From), to: int32(s.To),
		slot: int32(slot), bits: s.Bits, kindID: s.KindID, accepted: s.Accepted,
	})
}

// Reset appends slot's reset marker to obj's chain: a walk of the slot
// stops there. An object without a head has nothing to reset and gets
// no cell.
func (j *ProvJournal) Reset(obj uint64, slot int) {
	if head := j.heads[obj]; head != 0 {
		j.put(obj, provCell{prev: head, slot: int32(slot), reset: true})
	}
}

func (j *ProvJournal) put(obj uint64, c provCell) {
	if n := len(j.cells); j.next == uint64(n) && n < j.max {
		cells := make([]provCell, min(max(2*n, provFirstCells), j.max))
		copy(cells, j.cells)
		j.cells = cells
	}
	j.cells[j.next%uint64(len(j.cells))] = c
	j.next++
	j.heads[obj] = j.next
}

// Drop forgets obj's head; its cells stay, unreachable, until the log
// overwrites them.
func (j *ProvJournal) Drop(obj uint64) { delete(j.heads, obj) }

// Walk returns the retained steps of obj's instance in slot in
// chronological order, Kind unset. It follows obj's chain back to the
// slot's reset marker or the object's first cell, numbering the steps
// from there; cut reports that it ran into an overwritten position
// first, and the steps are then numbered from the oldest retained one.
// Back-links always point to an earlier position, so a walk ends.
func (j *ProvJournal) Walk(obj uint64, slot int) (steps []ProvStep, cut bool) {
	n := uint64(len(j.cells))
	var lo uint64 // the oldest position still resident
	if j.next > n {
		lo = j.next - n
	}
	for ref := j.heads[obj]; ref != 0; {
		if ref-1 < lo {
			cut = true
			break
		}
		c := &j.cells[(ref-1)%n]
		if int(c.slot) == slot {
			if c.reset {
				break
			}
			steps = append(steps, ProvStep{
				TxID: c.txID, AtNs: c.atNs, KindID: c.kindID, Bits: c.bits, Sym: int(c.sym),
				From: int(c.from), To: int(c.to), Accepted: c.accepted,
			})
		}
		ref = c.prev
	}
	slices.Reverse(steps)
	for i := range steps {
		steps[i].Seq = uint64(i + 1)
	}
	return steps, cut
}

// Bytes reports the size of the log's buffer, and Objects how many
// objects have a head.
func (j *ProvJournal) Bytes() int   { return len(j.cells) * ProvCellBytes }
func (j *ProvJournal) Objects() int { return len(j.heads) }

// DefaultProvDepth and ProvRing are a one-object journal of depth
// cells, kept only so the benchmark's obs.prov_append_ns cell, which
// builds one, measures ProvJournal.Append. Delete them with ROADMAP
// item 14.
const DefaultProvDepth = 32

// ProvRing is the one-object journal (see DefaultProvDepth).
type ProvRing struct{ j *ProvJournal }

// NewProvRing returns a one-object journal of depth cells.
func NewProvRing(depth int) *ProvRing { return &ProvRing{NewProvJournal(depth * ProvCellBytes)} }

// Append records s as the object's next step.
func (r *ProvRing) Append(s ProvStep) { r.j.Append(0, 0, s) }
