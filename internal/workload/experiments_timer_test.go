package workload

import "testing"

// TestE18Small runs the storm at test scale: one engine and a
// partitioned cell must pass the delivery ledger (posts == objects ×
// ticks) and the metric reconciliation built into every cell.
func TestE18Small(t *testing.T) {
	rows, err := RunE18([]int{256}, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Posts != uint64(r.Objects*r.Ticks) {
			t.Fatalf("row %+v: posts != objects×ticks", r)
		}
		if r.Firings == 0 {
			t.Fatalf("row %+v: vacuous cell, no firings", r)
		}
		if r.PostsPerSec <= 0 || r.Speedup <= 0 {
			t.Fatalf("row %+v: bad rates", r)
		}
	}
	if rows[0].Partitions != 1 || rows[1].Partitions != 2 {
		t.Fatalf("unexpected sweep order: %+v", rows)
	}
}

// TestE18Sharing pins the §3.1 structure the storm exploits: a fleet
// armed in one instant occupies exactly one cohort — Heartbeat and
// Cron carry the same canonical periodic spec and the same arm-phase,
// so even the Cron subset joins the existing cohort — and the whole
// fleet holds a single pending timing-wheel entry.
func TestE18Sharing(t *testing.T) {
	cohorts, pending, err := TimersArmedCheck(512)
	if err != nil {
		t.Fatal(err)
	}
	if cohorts != 1 || pending != 1 {
		t.Fatalf("fleet of 512: cohorts=%d pending=%d, want 1/1", cohorts, pending)
	}
}
