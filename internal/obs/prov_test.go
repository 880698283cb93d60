package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The ProvRing tests drive the one-object journal the benchmark's shim
// builds: a journal of depth cells holding one object in slot 0.

func TestProvRingAppendStepsReset(t *testing.T) {
	r := NewProvRing(4)
	for i := 1; i <= 3; i++ {
		r.Append(ProvStep{From: i - 1, To: i, Sym: i})
	}
	steps, cut := r.j.Walk(0, 0)
	if len(steps) != 3 || cut {
		t.Fatalf("Walk = %d entries (cut %v), want 3", len(steps), cut)
	}
	for i, s := range steps {
		if s.Seq != uint64(i+1) || s.To != i+1 {
			t.Fatalf("step %d = %+v", i, s)
		}
	}

	r.j.Reset(0, 0)
	if steps, cut := r.j.Walk(0, 0); len(steps) != 0 || cut {
		t.Fatalf("instance not empty after Reset: %v (cut %v)", steps, cut)
	}
	r.Append(ProvStep{To: 9})
	if s, cut := r.j.Walk(0, 0); len(s) != 1 || s[0].Seq != 1 || s[0].To != 9 || cut {
		t.Fatalf("post-reset steps = %+v (cut %v)", s, cut)
	}
}

func TestProvRingWrapKeepsMostRecent(t *testing.T) {
	r := NewProvRing(4)
	for i := 1; i <= 10; i++ {
		r.Append(ProvStep{Sym: i})
	}
	steps, cut := r.j.Walk(0, 0)
	if len(steps) != 4 || !cut {
		t.Fatalf("retained %d steps (cut %v), want 4 cut at the tail", len(steps), cut)
	}
	for i, s := range steps {
		if s.Sym != 7+i || s.Seq != uint64(i+1) {
			t.Fatalf("step %d = %+v, want sym %d numbered %d from the tail", i, s, 7+i, i+1)
		}
	}
}

func TestProvRingDefaultDepth(t *testing.T) {
	r := NewProvRing(DefaultProvDepth)
	for i := 0; i < 2*DefaultProvDepth; i++ {
		r.Append(ProvStep{Sym: i})
	}
	if steps, _ := r.j.Walk(0, 0); len(steps) != DefaultProvDepth || r.j.Bytes() != DefaultProvDepth*ProvCellBytes {
		t.Fatalf("default depth retains %d steps in %d bytes, want %d", len(steps), r.j.Bytes(), DefaultProvDepth)
	}
}

func TestProvCellSize(t *testing.T) {
	if got := int(unsafe.Sizeof(provCell{})); got != ProvCellBytes {
		t.Fatalf("provCell is %d bytes, ProvCellBytes says %d", got, ProvCellBytes)
	}
}

// TestProvRingGrowsWithHistory: no buffer before the first step, then
// doubling up to the cap and never past it, and a head per object.
func TestProvRingGrowsWithHistory(t *testing.T) {
	for _, depth := range []int{1, 3, 16, 17, 32, 100} {
		j := NewProvRing(depth).j
		if j.Bytes() != 0 {
			t.Fatalf("depth %d: an empty journal holds %d bytes", depth, j.Bytes())
		}
		held, growths := 0, 0
		for i := 1; i <= 3*depth; i++ {
			j.Append(uint64(i%3), 0, ProvStep{Sym: i})
			if j.Bytes() != held {
				held = j.Bytes()
				growths++
			}
			if j.Objects() != min(i, 3) {
				t.Fatalf("depth %d step %d: %d heads", depth, i, j.Objects())
			}
			if have, need := j.Bytes()/ProvCellBytes, min(i, depth); have < need || have > max(2*need, provFirstCells) {
				t.Fatalf("depth %d step %d: %d cells", depth, i, have)
			}
		}
		if j.Bytes() != depth*ProvCellBytes {
			t.Fatalf("depth %d: full journal holds %d bytes, want %d", depth, j.Bytes(), depth*ProvCellBytes)
		}
		if growths > 4 {
			t.Fatalf("depth %d: buffer grew %d times", depth, growths)
		}
		if j.Reset(1, 0); j.Bytes() != depth*ProvCellBytes {
			t.Fatalf("depth %d: a Reset at the cap holds %d bytes", depth, j.Bytes())
		}
	}
}

// fixedRing is the eager fixed-capacity per-instance ring of the
// earlier design — every cell laid down at construction, the step
// number stored per cell — kept as the reference the one-object journal
// is compared against.
type fixedRing struct {
	buf []ProvStep
	seq uint64
}

func (r *fixedRing) Append(s ProvStep) {
	r.seq++
	s.Seq, s.Kind = r.seq, ""
	r.buf[int((r.seq-1)%uint64(len(r.buf)))] = s
}

func (r *fixedRing) Reset() {
	clear(r.buf)
	r.seq = 0
}

func (r *fixedRing) Steps() []ProvStep {
	n := min(r.seq, uint64(len(r.buf)))
	out := make([]ProvStep, 0, n)
	for seq := r.seq - n + 1; seq <= r.seq; seq++ {
		out = append(out, r.buf[int((seq-1)%uint64(len(r.buf)))])
	}
	return out
}

// TestProvRingMatchesFixedRing: random Append/Reset scripts against the
// fixed ring of the same depth. A reset marker takes a cell, so the
// one-object journal holds the instance's steps whole while they and
// the marker fit; it then holds the most recent depth steps, cut, and
// numbered from the cut.
func TestProvRingMatchesFixedRing(t *testing.T) {
	for _, depth := range []int{1, 4, 5, 32, 33} {
		rng := rand.New(rand.NewSource(int64(depth)))
		ring, ref := NewProvRing(depth), &fixedRing{buf: make([]ProvStep, depth)}
		marker := 0 // 1 once a reset has left a marker cell
		for op := 0; op < 4000; op++ {
			if rng.Intn(3*depth+8) == 0 {
				ring.j.Reset(0, 0)
				ref.Reset()
				if ring.j.Objects() != 0 {
					marker = 1
				}
			} else {
				s := ProvStep{
					TxID: rng.Uint64(), AtNs: rng.Int63(), KindID: uint16(rng.Intn(1 << 16)), Bits: rng.Uint32(),
					Sym: rng.Intn(1 << 20), From: rng.Intn(1 << 20), To: rng.Intn(1 << 20), Accepted: rng.Intn(2) == 0,
					Kind: "not kept",
				}
				ring.Append(s)
				ref.Append(s)
			}
			got, cut := ring.j.Walk(0, 0)
			want := ref.Steps()
			if wantCut := int(ref.seq)+marker > depth; cut != wantCut {
				t.Fatalf("depth %d op %d: cut = %v after %d steps", depth, op, cut, ref.seq)
			}
			if cut {
				for i := range want {
					want[i].Seq = uint64(i + 1)
				}
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d op %d: steps diverge\n got %+v\nwant %+v", depth, op, got, want)
			}
		}
	}
}

func TestProvRingAppendDoesNotAllocate(t *testing.T) {
	r := NewProvRing(8)
	step := ProvStep{TxID: 1, KindID: 2, Bits: 3, Sym: 4, From: 0, To: 1}
	for i := 0; i < 8; i++ { // to the cap: growth is the only allocation
		r.Append(step)
	}
	allocs := testing.AllocsPerRun(200, func() { r.Append(step) })
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f per call, want 0", allocs)
	}
}

// refInstance is one trigger instance's history as the per-instance
// ring of the earlier design kept it, at unbounded depth, plus the
// journal position each step and the last reset marker took.
type refInstance struct {
	steps  []ProvStep
	pos    []uint64
	marker int64 // -1: never reset since the object's head was born
}

// refJournal models a ProvJournal of cap cells as per-instance rings:
// what a walk of each instance must return is what its ring holds,
// except the steps, and the boundary, the journal has overwritten.
type refJournal struct {
	cap, next uint64
	first     map[uint64]uint64 // object → its first cell's position
	inst      map[[2]uint64]*refInstance
}

func newRefJournal(cells int) *refJournal {
	return &refJournal{cap: uint64(cells), first: map[uint64]uint64{}, inst: map[[2]uint64]*refInstance{}}
}

func (r *refJournal) instance(obj uint64, slot int) *refInstance {
	k := [2]uint64{obj, uint64(slot)}
	if r.inst[k] == nil {
		r.inst[k] = &refInstance{marker: -1}
	}
	return r.inst[k]
}

func (r *refJournal) Append(obj uint64, slot int, s ProvStep) {
	if _, ok := r.first[obj]; !ok {
		r.first[obj] = r.next
	}
	in := r.instance(obj, slot)
	s.Seq, s.Kind = uint64(len(in.steps)+1), ""
	in.steps, in.pos = append(in.steps, s), append(in.pos, r.next)
	r.next++
}

func (r *refJournal) Reset(obj uint64, slot int) {
	if _, ok := r.first[obj]; !ok {
		return
	}
	in := r.instance(obj, slot)
	in.steps, in.pos, in.marker = nil, nil, int64(r.next)
	r.next++
}

func (r *refJournal) Drop(obj uint64) {
	delete(r.first, obj)
	for k := range r.inst {
		if k[0] == obj {
			delete(r.inst, k)
		}
	}
}

// Walk is what ProvJournal.Walk must return: the whole instance while
// its boundary (reset marker, else the object's first cell) is
// resident, else the resident suffix, cut and renumbered.
func (r *refJournal) Walk(obj uint64, slot int) ([]ProvStep, bool) {
	first, ok := r.first[obj]
	if !ok {
		return nil, false
	}
	var lo uint64
	if r.next > r.cap {
		lo = r.next - r.cap
	}
	in := r.inst[[2]uint64{obj, uint64(slot)}]
	boundary := int64(first)
	if in != nil && in.marker >= 0 {
		boundary = in.marker
	}
	if in == nil {
		return nil, boundary < int64(lo)
	}
	if boundary >= int64(lo) {
		return in.steps, false
	}
	var out []ProvStep
	for i, s := range in.steps {
		if in.pos[i] >= lo {
			s.Seq = uint64(len(out) + 1)
			out = append(out, s)
		}
	}
	return out, true
}

// journalOp applies one scripted operation to the journal and the
// reference: 0–5 append (obj, slot), 6 reset, 7 drop.
func journalOp(j *ProvJournal, ref *refJournal, op byte, obj uint64, slot int, at int64) {
	switch {
	case op < 6:
		// TxID and Sym name the instance, so a walk that returned
		// another instance's cell would show it.
		s := ProvStep{TxID: obj, AtNs: at, Sym: slot, KindID: uint16(op), From: int(at % 7), To: int(at % 5), Accepted: op == 5}
		j.Append(obj, slot, s)
		ref.Append(obj, slot, s)
	case op == 6:
		j.Reset(obj, slot)
		ref.Reset(obj, slot)
	default:
		j.Drop(obj)
		ref.Drop(obj)
	}
}

// checkJournal compares every instance's walk with the reference and
// checks the bounds.
func checkJournal(t testing.TB, j *ProvJournal, ref *refJournal, objs, slots int, bound int) {
	t.Helper()
	if j.Bytes() > bound || j.Objects() != len(ref.first) {
		t.Fatalf("journal holds %d bytes (bound %d) and %d heads, reference %d", j.Bytes(), bound, j.Objects(), len(ref.first))
	}
	for obj := 0; obj < objs; obj++ {
		for slot := 0; slot < slots; slot++ {
			got, cut := j.Walk(uint64(obj), slot)
			want, wantCut := ref.Walk(uint64(obj), slot)
			if cut != wantCut || len(got) != len(want) || (len(got) != 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("instance (%d, %d) after %d cells: walk cut=%v %+v\nreference cut=%v %+v",
					obj, slot, ref.next, cut, got, wantCut, want)
			}
			if ref.next <= ref.cap && cut {
				t.Fatalf("instance (%d, %d) cut before the journal wrapped", obj, slot)
			}
		}
	}
}

// TestProvJournalMatchesRings is the differential test: random Append /
// Reset / Drop scripts over many objects × slots, against per-instance
// rings of unbounded depth. After every operation each instance's walk
// equals its ring while the journal has not wrapped, and afterwards
// equals it whenever the instance's boundary is resident, or else is
// its resident suffix with the cut reported.
func TestProvJournalMatchesRings(t *testing.T) {
	const objs, slots = 24, 3
	for _, cells := range []int{1, 7, 64, 1000} {
		t.Run(fmt.Sprint(cells), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cells)))
			j, ref := NewProvJournal(cells*ProvCellBytes), newRefJournal(cells)
			for op := 0; op < 3000; op++ {
				kind := byte(rng.Intn(7))
				if rng.Intn(100) == 0 {
					kind = 7
				}
				journalOp(j, ref, kind, uint64(rng.Intn(objs)), rng.Intn(slots), int64(op))
				checkJournal(t, j, ref, objs, slots, cells*ProvCellBytes)
			}
		})
	}
}

// TestProvJournalAppendAtCapDoesNotAllocate: once the log has reached
// its cap and wrapped, appending to objects with a head allocates
// nothing.
func TestProvJournalAppendAtCapDoesNotAllocate(t *testing.T) {
	j := NewProvJournal(100 * ProvCellBytes)
	for i := 0; i < 1000; i++ {
		j.Append(uint64(i%50), i%3, ProvStep{Sym: i})
	}
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		j.Append(uint64(i%50), i%3, ProvStep{Sym: i})
		j.Reset(uint64(i%50), 1)
		i++
	}); allocs != 0 {
		t.Fatalf("Append at the cap allocates %.1f per call, want 0", allocs)
	}
}

// FuzzProvJournal drives a journal of 1–64 cells with up to 255
// arbitrary operations (three bytes each: kind, object, slot) and checks,
// after every operation, that each walk is the reference's — so never
// another object's or slot's cell (each step names its instance), never
// a repeated cell (the steps are numbered and timed in order) — and
// that the resident bytes stay within the bound.
func FuzzProvJournal(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 2, 1, 6, 1, 0, 0, 0, 7, 1, 0, 0, 1, 1})
	f.Add([]byte{1, 0, 0, 0, 6, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 3*256 {
			return
		}
		const objs, slots = 8, 3
		cells := int(ops[0]%64) + 1
		j, ref := NewProvJournal(cells*ProvCellBytes), newRefJournal(cells)
		for i := 1; i+2 < len(ops); i += 3 {
			journalOp(j, ref, ops[i]%8, uint64(ops[i+1]%objs), int(ops[i+2]%slots), int64(i))
			checkJournal(t, j, ref, objs, slots, cells*ProvCellBytes)
			for obj := uint64(0); obj < objs; obj++ {
				for slot := 0; slot < slots; slot++ {
					steps, _ := j.Walk(obj, slot)
					for k, s := range steps {
						if s.TxID != obj || s.Sym != slot || s.Seq != uint64(k+1) || (k > 0 && s.AtNs <= steps[k-1].AtNs) || k >= cells {
							t.Fatalf("walk of (%d, %d) returned %+v at %d", obj, slot, s, k)
						}
					}
				}
			}
		}
	})
}
