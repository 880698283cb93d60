package ode_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example program end to end and checks
// for its signature output lines. Skipped with -short (each run pays a
// go-build).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples need subprocess builds")
	}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"./examples/quickstart", []string{
			"[trigger Watch] withdrawal after a large one",
			"trigger state is the single integer",
		}},
		{"./examples/stockroom", []string{
			"[T8] deposit immediately followed by withdrawal",
			"T1 blocked mallory's withdrawal",
			"[T2] stock of \"gears\" below reorder level",
			"[T4] busy day",
			"[T5] five more operations",
			"[T6] large withdrawal recorded",
			"[summary]",
			"day 2 closes",
		}},
		{"./examples/processctl", []string{
			"[trigger T] valve cycled after a pressure drop — check pressure (now 2.5)",
			"check pressure (now 1.5)",
		}},
		{"./examples/banking", []string{
			"[immediate-immediate]",
			"[immediate-deferred]",
			"[immediate-dependent]",
			"[deferred-immediate]",
			"[whole-history] a transaction touching this account aborted (balance 4000)",
			// … and again after the example restarts its database.
			"[whole-history] a transaction touching this account aborted (balance 400)\n",
			"[state-event] balance fell below 500",
			"final balance: 400",
		}},
		{"./examples/fraudwatch", []string{
			"[card-testing]",
			"[geo-jump]",
			"[velocity] fifth purchase since midnight",
			"DECLINED",
			"total spent on card: 1517.50",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", tc.pkg).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", tc.pkg, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q:\n%s", tc.pkg, want, out)
				}
			}
		})
	}
}
