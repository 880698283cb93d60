package workload

import "testing"

// TestRunE12 exercises the hot-path driver at small scale: every
// scenario appears once, the firing scenario actually fires, and the
// masked non-firing scenarios stay silent.
func TestRunE12(t *testing.T) {
	rows, err := RunE12(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (one per scenario)", len(rows))
	}
	for _, r := range rows {
		if r.Mode != "compiled" {
			t.Errorf("row %+v: mode %q, want compiled", r, r.Mode)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("row %+v: non-positive ns/op", r)
		}
		if r.AllocsPerOp < 0 {
			t.Errorf("row %+v: negative allocs/op", r)
		}
		switch r.Scenario {
		case "firing":
			if r.Firings == 0 {
				t.Errorf("row %+v: firing scenario fired nothing", r)
			}
		default:
			if r.Firings != 0 {
				t.Errorf("row %+v: masked scenario fired %d times", r, r.Firings)
			}
		}
	}
}
