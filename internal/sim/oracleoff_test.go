package sim

import (
	"fmt"
	"os"
	"slices"
	"testing"
)

// TestOracleOffMatchesOracleOn runs generated fault-free scripts with
// the shadow oracle on and off. On, the engine dispatches every trigger
// for every kind, so no script reaches a lifecycle kind that no trigger
// of the class can be moved by; off, those are only counted
// (engine.Tx.lifeRun). The firing ledgers, the final objects and the
// happening, firing and tcomplete-round counts must match. Steps and
// mask evaluations differ by design. Faulted scripts are left out: a
// fault point counts consults, and the two modes consult differently.
func TestOracleOffMatchesOracleOn(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	base := t.TempDir()
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := Defaults(seed)
		cfg.Persistent = seed%2 == 0
		sc := Generate(cfg)
		var res [2]*Result
		for i, oracle := range [2]bool{true, false} {
			dir, err := os.MkdirTemp(base, "run-*")
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = execute(sc, dir, oracle); err != nil {
				t.Fatalf("seed %d, oracle %v: %v", seed, oracle, err)
			}
		}
		on, off := res[0], res[1]
		if !slices.Equal(on.Firings, off.Firings) {
			t.Errorf("seed %d: firing ledgers differ:\non  %q\noff %q", seed, on.Firings, off.Firings)
		}
		if !slices.Equal(on.objects, off.objects) {
			t.Errorf("seed %d: final objects differ:\non  %q\noff %q", seed, on.objects, off.objects)
		}
		count := func(r *Result) string {
			return fmt.Sprintf("happenings=%d firings=%d tcomplete-rounds=%d",
				r.Stats.Happenings, r.Stats.Firings, r.Stats.TcompleteRounds)
		}
		if count(on) != count(off) {
			t.Errorf("seed %d: oracle on %s, off %s", seed, count(on), count(off))
		}
	}
}
