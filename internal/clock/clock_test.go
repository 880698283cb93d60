package clock

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

func TestNowAndAdvance(t *testing.T) {
	c := NewVirtual(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("initial now")
	}
	c.Advance(90 * time.Minute)
	if !c.Now().Equal(t0.Add(90 * time.Minute)) {
		t.Fatalf("now = %v", c.Now())
	}
	c.Advance(0)
	if !c.Now().Equal(t0.Add(90 * time.Minute)) {
		t.Fatal("zero advance moved the clock")
	}
}

func TestOneShotTimers(t *testing.T) {
	c := NewVirtual(t0)
	var fired []string
	c.After(2*time.Hour, func(at time.Time) {
		fired = append(fired, "after@"+at.Format("15:04"))
	})
	c.At(t0.Add(1*time.Hour), func(at time.Time) {
		fired = append(fired, "at@"+at.Format("15:04"))
	})
	c.Advance(30 * time.Minute)
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	c.Advance(2 * time.Hour)
	if len(fired) != 2 || fired[0] != "at@09:00" || fired[1] != "after@10:00" {
		t.Fatalf("fired = %v", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d", c.Pending())
	}
	// One-shots do not refire.
	c.Advance(24 * time.Hour)
	if len(fired) != 2 {
		t.Fatalf("one-shot refired: %v", fired)
	}
}

// TestEveryFromKeepsItsPhase: a periodic timer anchored 25 minutes in
// the past on a 10-minute period first fires at the next instant of its
// phase, 5 minutes from now, and never for the instants already past.
func TestEveryFromKeepsItsPhase(t *testing.T) {
	c := NewVirtual(t0)
	c.Advance(25 * time.Minute)
	var fired []string
	c.EveryFrom(t0, 10*time.Minute, func(at time.Time) { fired = append(fired, at.Format("15:04")) })
	c.Advance(30 * time.Minute)
	if got := fmt.Sprint(fired); got != "[08:30 08:40 08:50]" {
		t.Fatalf("fired at %s, want [08:30 08:40 08:50]", got)
	}
}

func TestPeriodicTimer(t *testing.T) {
	c := NewVirtual(t0)
	var count int
	id := c.Every(10*time.Minute, func(time.Time) { count++ })
	c.Advance(35 * time.Minute) // fires at +10, +20, +30
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	c.Cancel(id)
	c.Advance(time.Hour)
	if count != 3 {
		t.Fatalf("fired after cancel: %d", count)
	}
}

func TestTimerOrderAndCallbackTime(t *testing.T) {
	c := NewVirtual(t0)
	var order []int
	c.At(t0.Add(2*time.Minute), func(time.Time) { order = append(order, 2) })
	c.At(t0.Add(1*time.Minute), func(time.Time) { order = append(order, 1) })
	c.At(t0.Add(1*time.Minute), func(time.Time) { order = append(order, 11) }) // tie → registration order
	c.Advance(5 * time.Minute)
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestCallbackSchedulesTimer(t *testing.T) {
	c := NewVirtual(t0)
	var fired []time.Duration
	c.After(time.Minute, func(at time.Time) {
		fired = append(fired, at.Sub(t0))
		// A timer scheduled inside a callback, still within the window,
		// must fire during the same Advance.
		c.After(time.Minute, func(at2 time.Time) {
			fired = append(fired, at2.Sub(t0))
		})
	})
	c.Advance(5 * time.Minute)
	if len(fired) != 2 || fired[0] != time.Minute || fired[1] != 2*time.Minute {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancelUnknownIsNoop(t *testing.T) {
	c := NewVirtual(t0)
	c.Cancel(999)
	id := c.After(time.Minute, func(time.Time) {})
	c.Advance(2 * time.Minute)
	c.Cancel(id) // already fired
}

func TestPastAtFiresOnNextAdvance(t *testing.T) {
	c := NewVirtual(t0)
	var fired bool
	c.At(t0.Add(-time.Hour), func(time.Time) { fired = true })
	c.Advance(time.Millisecond)
	if !fired {
		t.Fatal("past timer never fired")
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewVirtual(t0)
	target := t0.Add(3 * time.Hour)
	c.AdvanceTo(target)
	if !c.Now().Equal(target) {
		t.Fatal("AdvanceTo")
	}
	c.AdvanceTo(t0) // past → no-op
	if !c.Now().Equal(target) {
		t.Fatal("AdvanceTo moved backwards")
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	c := NewVirtual(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Every(0, func(time.Time) {})
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := NewVirtual(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestTimeSpecPeriod(t *testing.T) {
	ts := EmptyTimeSpec()
	ts.Hour = 2
	ts.Min = 30
	if ts.Period() != 2*time.Hour+30*time.Minute {
		t.Fatalf("period = %v", ts.Period())
	}
	if !EmptyTimeSpec().IsZeroPeriod() {
		t.Fatal("empty spec should be zero period")
	}
	full := EmptyTimeSpec()
	full.Year, full.Month, full.Day = 1, 2, 3
	want := 365*24*time.Hour + 2*30*24*time.Hour + 3*24*time.Hour
	if full.Period() != want {
		t.Fatalf("period = %v want %v", full.Period(), want)
	}
}

func TestNextMatchDaily(t *testing.T) {
	// The paper's dayEnd: at time(HR=17), from 08:00 → today 17:00.
	ts := EmptyTimeSpec()
	ts.Hour = 17
	got, ok := ts.NextMatch(t0)
	want := time.Date(2026, 7, 4, 17, 0, 0, 0, time.UTC)
	if !ok || !got.Equal(want) {
		t.Fatalf("NextMatch = %v, %v; want %v", got, ok, want)
	}
	// From 17:30 → tomorrow 17:00 (daily recurrence).
	got2, ok := ts.NextMatch(want.Add(30 * time.Minute))
	want2 := time.Date(2026, 7, 5, 17, 0, 0, 0, time.UTC)
	if !ok || !got2.Equal(want2) {
		t.Fatalf("NextMatch = %v; want %v", got2, want2)
	}
	// From exactly 17:00 → strictly after: tomorrow.
	got3, ok := ts.NextMatch(want)
	if !ok || !got3.Equal(want2) {
		t.Fatalf("NextMatch at boundary = %v; want %v", got3, want2)
	}
}

func TestNextMatchSpecificDate(t *testing.T) {
	ts := EmptyTimeSpec()
	ts.Year, ts.Month, ts.Day, ts.Hour, ts.Min = 2026, 12, 25, 9, 30
	got, ok := ts.NextMatch(t0)
	want := time.Date(2026, 12, 25, 9, 30, 0, 0, time.UTC)
	if !ok || !got.Equal(want) {
		t.Fatalf("NextMatch = %v, %v", got, ok)
	}
	// Once past, a fully-dated spec never matches again.
	if _, ok := ts.NextMatch(want); ok {
		t.Fatal("past dated spec matched again")
	}
}

func TestNextMatchMonthlyAndSeconds(t *testing.T) {
	ts := EmptyTimeSpec()
	ts.Day = 1
	got, ok := ts.NextMatch(t0) // July 4 → Aug 1 00:00
	want := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	if !ok || !got.Equal(want) {
		t.Fatalf("monthly = %v", got)
	}

	sec := EmptyTimeSpec()
	sec.Sec = 30
	got2, ok := sec.NextMatch(t0) // every minute at :30
	if !ok || got2.Second() != 30 || got2.Sub(t0) != 30*time.Second {
		t.Fatalf("seconds = %v", got2)
	}

	ms := EmptyTimeSpec()
	ms.Ms = 250
	got3, ok := ms.NextMatch(t0)
	if !ok || got3.Sub(t0) != 250*time.Millisecond {
		t.Fatalf("ms = %v", got3)
	}
}

func TestNextMatchImpossible(t *testing.T) {
	// Feb 30 never exists.
	ts := EmptyTimeSpec()
	ts.Month, ts.Day = 2, 30
	if _, ok := ts.NextMatch(t0); ok {
		t.Fatal("Feb 30 matched")
	}
	// A year in the past never matches.
	past := EmptyTimeSpec()
	past.Year = 1999
	if _, ok := past.NextMatch(t0); ok {
		t.Fatal("past year matched")
	}
}

func TestNextMatchLeapDay(t *testing.T) {
	ts := EmptyTimeSpec()
	ts.Month, ts.Day = 2, 29
	got, ok := ts.NextMatch(t0) // next Feb 29 after 2026-07-04 is 2028
	want := time.Date(2028, 2, 29, 0, 0, 0, 0, time.UTC)
	if !ok || !got.Equal(want) {
		t.Fatalf("leap = %v, %v", got, ok)
	}
}

func TestTimeSpecString(t *testing.T) {
	ts := EmptyTimeSpec()
	ts.Hour, ts.Min = 9, 5
	if got := ts.String(); got != "time(HR=9, M=5)" {
		t.Fatalf("String = %q", got)
	}
}
