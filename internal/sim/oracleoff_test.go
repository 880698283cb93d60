package sim

import (
	"fmt"
	"os"
	"slices"
	"testing"
)

// TestOracleOffMatchesOracleOn runs generated scripts, faulted ones
// included, with the trace checker attached and detached. The checker
// only reads the engine's trace, so the engine runs in its one mode
// either way: the firing ledgers, the final objects, the happening,
// firing and tcomplete-round counts, the steps and mask evaluations,
// and the fault registry's consults and injections per point must be
// identical.
func TestOracleOffMatchesOracleOn(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	base := t.TempDir()
	crashes := 0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := Defaults(seed)
		cfg.Persistent = seed%2 == 0
		cfg.Faults = cfg.Persistent && seed%4 == 0
		sc := Generate(cfg)
		var res [2]*Result
		for i, checked := range [2]bool{true, false} {
			dir, err := os.MkdirTemp(base, "run-*")
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = execute(sc, dir, checked); err != nil {
				t.Fatalf("seed %d, checked %v: %v", seed, checked, err)
			}
		}
		on, off := res[0], res[1]
		crashes += on.Crashes
		if !slices.Equal(on.Firings, off.Firings) {
			t.Errorf("seed %d: firing ledgers differ:\non  %q\noff %q", seed, on.Firings, off.Firings)
		}
		if !slices.Equal(on.objects, off.objects) {
			t.Errorf("seed %d: final objects differ:\non  %q\noff %q", seed, on.objects, off.objects)
		}
		count := func(r *Result) string {
			return fmt.Sprintf("happenings=%d firings=%d tcomplete-rounds=%d steps=%d mask-evals=%d crashes=%d faults=%v",
				r.Stats.Happenings, r.Stats.Firings, r.Stats.TcompleteRounds, r.Stats.Steps, r.Stats.MaskEvals,
				r.Crashes, r.faults)
		}
		if count(on) != count(off) {
			t.Errorf("seed %d: checker attached %s\ndetached %s", seed, count(on), count(off))
		}
	}
	if crashes == 0 {
		t.Error("no script crashed: the faulted half of the comparison is vacuous")
	}
}
