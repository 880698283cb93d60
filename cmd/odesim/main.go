// odesim runs a deterministic-simulation torture campaign (DESIGN.md
// §11, experiment E14): many independent seeded simulation runs
// (persistent store, fault injection, all oracles including the
// exactly-once egress ledger), one line of progress per chunk, and a
// final summary. Every failure prints its seed and a minimized
// reproduction script; the exit code is nonzero if any iteration
// failed, so CI can gate on it. With -out the summary (plus failing
// seeds) is written as JSON, and any failures additionally dump their
// flight-recorder captures — the pipeline events leading into each
// divergence — to <out>-flight.json; the nightly workflow uploads both
// as artifacts.
//
// Usage:
//
//	odesim -iters 10000 -seed 1          # a campaign
//	odesim -iters 1000 -out sim.json     # with a JSON summary
//	odesim -seed <failing-seed> -iters 1 # reproduce one failure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"ode/internal/obs"
	"ode/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the campaign and returns the exit code: 0 when
// every iteration passed, 1 on a failure or an output error, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 1000, "number of seeded iterations (iteration i runs seed+i)")
	seed := fs.Int64("seed", 1, "first seed")
	volatile := fs.Bool("volatile", false, "use a volatile store (lock faults only, no WAL/crash cycles)")
	out := fs.String("out", "", "write the summary as JSON to this file (failures also to <out>-flight.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "odesim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := sim.Defaults(*seed)
	cfg.Persistent = !*volatile
	cfg.Faults = true
	cfg.Egress = true
	mode := "persistent store + WAL/lock/egress fault injection"
	if *volatile {
		mode = "volatile store + lock/egress fault injection"
	}
	fmt.Fprintf(stdout, "sim torture: %d iterations from seed %d (%s)\n", *iters, *seed, mode)

	chunk := max(*iters/20, 1)
	sum, fails := sim.Torture(sim.TortureOpts{
		Iters:    *iters,
		Seed:     *seed,
		Cfg:      cfg,
		Minimize: true,
		Progress: func(done, failures int) {
			if done%chunk == 0 || done == *iters {
				fmt.Fprintf(stdout, "  %6d/%d done, %d failure(s)\n", done, *iters, failures)
			}
		},
	})

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  iterations\tfailures\tcrashes\trecoveries\ttorn tails\tfaults injected\tfirings\thappenings\teffects\tredelivered\tgave up\tdelv crashes")
	fmt.Fprintf(w, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		sum.Iters, sum.Failures, sum.Crashes, sum.Recoveries, sum.TornTails, sum.Injected,
		sum.Firings, sum.Happenings, sum.EgressEffects, sum.Redelivered, sum.GaveUp, sum.DelivererCrashes)
	w.Flush()
	for _, f := range fails {
		fmt.Fprintf(stderr, "\n%v\n", f)
	}

	if *out != "" {
		if err := writeSummary(stdout, *out, *seed, *volatile, sum, fails); err != nil {
			fmt.Fprintf(stderr, "odesim: %v\n", err)
			return 1
		}
	}
	if sum.Failures > 0 {
		return 1
	}
	return 0
}

// writeSummary writes the campaign summary to out and, when there are
// failures, each one's flight-recorder capture next to it, so a nightly
// failure ships its own crash dump.
func writeSummary(stdout io.Writer, out string, seed int64, volatile bool, sum sim.TortureSummary, fails []*sim.Failure) error {
	blob, err := json.MarshalIndent(struct {
		Experiment string             `json:"experiment"`
		Seed       int64              `json:"seed"`
		Volatile   bool               `json:"volatile"`
		Summary    sim.TortureSummary `json:"summary"`
	}{"E14", seed, volatile, sum}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", out)
	if len(fails) == 0 {
		return nil
	}
	type dump struct {
		Seed   int64             `json:"seed"`
		Step   int               `json:"step"`
		Error  string            `json:"error"`
		Events []obs.FlightEvent `json:"events"`
	}
	dumps := make([]dump, 0, len(fails))
	for _, f := range fails {
		dumps = append(dumps, dump{Seed: f.Seed, Step: f.Step, Error: f.Err.Error(), Events: f.Flight})
	}
	blob, err = json.MarshalIndent(dumps, "", "  ")
	if err != nil {
		return err
	}
	path := strings.TrimSuffix(out, ".json") + "-flight.json"
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s (%d failure flight dump(s))\n", path, len(dumps))
	return nil
}
