package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestProvRingAppendStepsReset(t *testing.T) {
	r := NewProvRing(4)
	for i := 1; i <= 3; i++ {
		r.Append(ProvStep{From: i - 1, To: i, Sym: i})
	}
	steps := r.Steps()
	if len(steps) != 3 {
		t.Fatalf("Steps = %d entries, want 3", len(steps))
	}
	for i, s := range steps {
		if s.Seq != uint64(i+1) || s.To != i+1 {
			t.Fatalf("step %d = %+v", i, s)
		}
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d, want 3", r.Total())
	}

	r.Reset()
	if r.Total() != 0 || len(r.Steps()) != 0 {
		t.Fatalf("ring not empty after Reset: total=%d steps=%v", r.Total(), r.Steps())
	}
	r.Append(ProvStep{To: 9})
	if s := r.Steps(); len(s) != 1 || s[0].Seq != 1 || s[0].To != 9 {
		t.Fatalf("post-reset steps = %+v", s)
	}
}

func TestProvRingWrapKeepsMostRecent(t *testing.T) {
	r := NewProvRing(4)
	for i := 1; i <= 10; i++ {
		r.Append(ProvStep{Sym: i})
	}
	steps := r.Steps()
	if len(steps) != 4 {
		t.Fatalf("retained %d steps, want 4", len(steps))
	}
	for i, s := range steps {
		if want := 7 + i; s.Sym != want || s.Seq != uint64(want) {
			t.Fatalf("step %d = %+v, want sym/seq %d", i, s, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
}

func TestProvRingDefaultDepth(t *testing.T) {
	r := NewProvRing(0)
	for i := 0; i < 2*DefaultProvDepth; i++ {
		r.Append(ProvStep{Sym: i})
	}
	if n := len(r.Steps()); n != DefaultProvDepth {
		t.Fatalf("default depth retains %d steps, want %d", n, DefaultProvDepth)
	}
}

func TestProvCellSize(t *testing.T) {
	if got := int(unsafe.Sizeof(provCell{})); got != ProvCellBytes {
		t.Fatalf("provCell is %d bytes, ProvCellBytes says %d", got, ProvCellBytes)
	}
}

// TestProvRingGrowsWithHistory: no buffer before the first step, then
// doubling up to the depth and never past it; Append reports exactly the
// growth, so the sum of its results is the buffer.
func TestProvRingGrowsWithHistory(t *testing.T) {
	for _, depth := range []int{1, 3, 4, 5, 32, 33} {
		r := NewProvRing(depth)
		if r.Bytes() != 0 {
			t.Fatalf("depth %d: an empty ring holds %d bytes", depth, r.Bytes())
		}
		grown, growths := 0, 0
		for i := 1; i <= 3*depth; i++ {
			g := r.Append(ProvStep{Sym: i})
			grown += g
			if g != 0 {
				growths++
			}
			if grown != r.Bytes() {
				t.Fatalf("depth %d step %d: Append reported %d bytes in all, buffer is %d", depth, i, grown, r.Bytes())
			}
			if have, need := r.Bytes()/ProvCellBytes, min(i, depth); have < need || have > max(2*need, provFirstCells) {
				t.Fatalf("depth %d step %d: %d cells", depth, i, have)
			}
		}
		if r.Bytes() != depth*ProvCellBytes {
			t.Fatalf("depth %d: full ring holds %d bytes, want %d", depth, r.Bytes(), depth*ProvCellBytes)
		}
		if growths > 5 {
			t.Fatalf("depth %d: buffer grew %d times", depth, growths)
		}
		r.Reset()
		if g := r.Append(ProvStep{}); g != 0 || r.Bytes() != depth*ProvCellBytes {
			t.Fatalf("depth %d: Reset did not keep the buffer (grew %d, holds %d)", depth, g, r.Bytes())
		}
	}
}

// fixedRing is the eager fixed-capacity ring ProvRing replaced — every
// cell laid down at construction, the step number stored per cell — kept
// as the reference the differential test compares against.
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
// reference ring; what a reader can see is equal after every operation,
// whatever size the growing buffer happens to have.
func TestProvRingMatchesFixedRing(t *testing.T) {
	for _, depth := range []int{1, 4, 5, 32, 33} {
		rng := rand.New(rand.NewSource(int64(depth)))
		ring, ref := NewProvRing(depth), &fixedRing{buf: make([]ProvStep, depth)}
		for op := 0; op < 4000; op++ {
			// Resets are rare enough for runs to wrap the ring at depth and
			// frequent enough to land in every growth stage.
			if rng.Intn(3*depth+8) == 0 {
				ring.Reset()
				ref.Reset()
			} else {
				s := ProvStep{
					TxID: rng.Uint64(), AtNs: rng.Int63(), KindID: uint16(rng.Intn(1 << 16)), Bits: rng.Uint32(),
					Sym: rng.Intn(1 << 20), From: rng.Intn(1 << 20), To: rng.Intn(1 << 20), Accepted: rng.Intn(2) == 0,
					Kind: "not kept",
				}
				ring.Append(s)
				ref.Append(s)
			}
			if got, want := ring.Steps(), ref.Steps(); !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d op %d: Steps diverge\n got %+v\nwant %+v", depth, op, got, want)
			}
			if ring.Total() != ref.seq {
				t.Fatalf("depth %d op %d: Total = %d, want %d", depth, op, ring.Total(), ref.seq)
			}
		}
	}
}

func TestProvRingAppendDoesNotAllocate(t *testing.T) {
	r := NewProvRing(8)
	step := ProvStep{TxID: 1, KindID: 2, Bits: 3, Sym: 4, From: 0, To: 1}
	for i := 0; i < 8; i++ { // to depth: growth is the only allocation
		r.Append(step)
	}
	allocs := testing.AllocsPerRun(200, func() { r.Append(step) })
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f per call, want 0", allocs)
	}
}
