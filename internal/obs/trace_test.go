package obs

import (
	"sync"
	"testing"
)

// The trace an engine keeps while tracing is on is a second Flight
// (Engine.EnableTracing). These tests pin the trace window's contract on
// it: what a wrapped, a partly filled and a default-sized trace return,
// sequence order under concurrent writers, and an allocation-free
// record into a full ring.

func TestRingWraparound(t *testing.T) {
	f := NewFlight(4, NewInterner())
	for i := 0; i < 10; i++ {
		f.Record(StageStep, 0, 0, 0, 0, 0, 0, i, 0, true, 0)
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	evs := f.Events(0)
	if len(evs) != 4 {
		t.Fatalf("Events(0) returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		// Seq is 1-based: the event recorded with From=i is the (i+1)th.
		if want := 6 + i; ev.From != want || ev.Seq != uint64(want+1) {
			t.Fatalf("event %d: From=%d Seq=%d, want From=%d Seq=%d", i, ev.From, ev.Seq, want, want+1)
		}
	}
	if got := f.Events(2); len(got) != 2 || got[0].From != 8 || got[1].From != 9 {
		t.Fatalf("Events(2) = %+v", got)
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	f := NewFlight(8, NewInterner())
	f.Record(StageFire, 0, 0, 0, 0, 0, 0, 0, 0, true, 0)
	f.Record(StageStep, 0, 0, 0, 0, 0, 0, 0, 0, true, 0)
	evs := f.Events(100)
	if len(evs) != 2 || evs[0].Stage != StageFire || evs[1].Stage != StageStep {
		t.Fatalf("Events(100) = %+v", evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Seq = %d, %d, want 1, 2", evs[0].Seq, evs[1].Seq)
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	// EnableTracing(-1) asks for the default trace window.
	f := NewFlight(-1, NewInterner())
	if len(f.slots) != DefaultFlightCapacity {
		t.Fatalf("capacity = %d, want %d", len(f.slots), DefaultFlightCapacity)
	}
	for i := 0; i <= DefaultFlightCapacity; i++ {
		f.Record(StageHappening, 0, 0, 0, 0, 0, 0, i, 0, true, 0)
	}
	evs := f.Events(0)
	if len(evs) != DefaultFlightCapacity || evs[0].From != 1 || evs[len(evs)-1].From != DefaultFlightCapacity {
		t.Fatalf("full default window: %d events, first From=%d", len(evs), evs[0].From)
	}
}

func TestRingConcurrent(t *testing.T) {
	f := NewFlight(64, NewInterner())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(StageHappening, 0, 0, 0, 0, 0, 0, i, 0, true, 0)
				if i%50 == 0 {
					f.Events(16)
				}
			}
		}()
	}
	wg.Wait()
	if f.Total() != 4000 {
		t.Fatalf("Total = %d, want 4000", f.Total())
	}
	// Retained events are among the last 64, in sequence order. A slot
	// a stalled writer published late is skipped, not returned out of
	// order.
	evs := f.Events(0)
	if len(evs) == 0 || len(evs) > 64 {
		t.Fatalf("retained %d events, want 1..64", len(evs))
	}
	prev := uint64(4000 - 64)
	for i, ev := range evs {
		if ev.Seq <= prev || ev.Seq > 4000 {
			t.Fatalf("event %d has seq %d after %d", i, ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

func TestTraceDoesNotAllocate(t *testing.T) {
	in := NewInterner()
	f := NewFlight(128, in)
	class, trig, kind := in.Intern("account"), in.Intern("T"), in.Intern("after deposit")
	for i := 0; i < 128; i++ {
		f.Record(StageMask, 0, 0, 0, class, trig, kind, 0, 0, true, 0)
	}
	// The ring is full: every further record overwrites a slot.
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(StageStep, 1, 2, 3, class, trig, kind, 1, 2, true, 0)
	})
	if allocs != 0 {
		t.Fatalf("recording into a full trace allocates %.1f per call", allocs)
	}
}
