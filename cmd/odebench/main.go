// odebench runs the reproduction's experiment suite (DESIGN.md §5) and
// prints one table per experiment. The paper has no measured tables or
// figures; each experiment quantifies one of its claims:
//
//	E1  automaton vs naive re-evaluation detection cost (§1, §5)
//	E2  one word of detection state per active trigger per object (§5)
//	E3  automaton sizes for the paper's triggers T1–T8 (§4, §5)
//	E4  mask-disjointness rewrite blow-up (§5)
//	E5  committed-view pair construction state growth (§6)
//	E6  the nine E-C-A coupling modes as event expressions (§7)
//	E7  time events on the virtual clock (§3.1, footnote 1)
//	E8  per-trigger automata vs one combined automaton (footnote 5)
//	E9  ablation: per-node minimization during compilation
//	E10 observability: per-trigger metrics JSON for a traced workload
//	E11 parallel posting: ops/sec at 1/2/4/8 goroutines over disjoint
//	    object partitions, volatile and persistent (group-commit WAL);
//	    -out writes the rows as JSON (e.g. BENCH_PR2.json)
//	E12 posting hot path (single Tx.Call: masked non-firing, sparse
//	    relevance, firing): no table of its own — E13 and E15–E17 embed
//	    its rows in their JSON as the single-post baseline
//	E13 compact shared automata: resident transition-table bytes for a
//	    100-trigger fleet sharing 10 expressions vs the unshared fat
//	    baseline, compile-cache hit rate, and stepping cost; -out also
//	    reruns E12 and writes both as JSON (e.g. BENCH_PR4.json)
//	E14 deterministic-simulation torture (the -sim mode, DESIGN.md §11):
//	    seeded randomized runs with fault injection, crash/recovery
//	    cycles and the §4 replay oracle; failing seeds print minimized
//	    reproduction scripts and fail the process; with -out, failures
//	    also dump the flight recorder to <out>-flight.json
//	E15 open-loop latency: the banking mix posted on a fixed arrival
//	    schedule at several target rates, latency measured from each
//	    transaction's intended start (coordinated-omission-safe), with
//	    p50/p90/p99/p99.9; -out also reruns E12 and writes both as JSON
//	    (e.g. BENCH_PR6.json)
//	E16 batch posting: Tx.PostBatch at batch sizes 16/64/256/1024 vs
//	    the single-post E12 volatile baseline — ns and amortized allocs
//	    per happening, happenings/sec, speedup; -out also reruns E12
//	    and writes both as JSON (e.g. BENCH_PR7.json)
//	E17 partitioned scaling: the E11 volatile banking mix at 1/2/4/8
//	    single-writer partitions × producer goroutines × batch sizes,
//	    aggregate happenings/sec and speedup vs the unpartitioned
//	    single-call baseline; -out also reruns E12 and E16 and writes
//	    all three as JSON (e.g. BENCH_PR8.json)
//	E18 timer storm: an IoT fleet arming one canonical `every`
//	    heartbeat per object, swept whole periods at a time — cohort
//	    delivery (timing wheel, one system transaction and one metered
//	    run of steps per class and tick), single-engine and
//	    partitioned; a table only — bench/'s timer_storm is the
//	    maintained measurement
//	E19 egress overhead: the E12 single-post and E16 batch hot paths
//	    rerun with the durable firing feed on vs off (Options.
//	    DisableEgress), plus deliverer drain throughput with and
//	    without a durable cursor; -out writes everything as JSON
//	    (e.g. BENCH_PR10.json)
//
// Usage:
//
//	odebench                               # run everything (E1..E11, E13, E15..E19)
//	odebench -exp E4                       # one experiment
//	odebench -exp E11 -out BENCH_PR2.json  # parallel numbers as JSON
//	odebench -exp E13 -out BENCH_PR4.json  # compact-automata JSON
//	odebench -exp E15 -out BENCH_PR6.json  # open-loop latency JSON
//	odebench -exp E16 -out BENCH_PR7.json  # batch-posting JSON
//	odebench -exp E17 -out BENCH_PR8.json  # partitioned-scaling JSON
//	odebench -exp E19 -out BENCH_PR10.json # egress-overhead JSON
//	odebench -sim -iters 10000 -seed 1     # E14 torture campaign
//	odebench -sim -iters 1000 -out sim.json
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// whichever experiments run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"ode/internal/workload"
)

func main() { os.Exit(run()) }

// run carries the real main body; returning instead of os.Exit lets the
// profiling defers flush before the process dies.
func run() int {
	exp := flag.String("exp", "", "experiment id (E1..E11, E13, E15..E19; E14 is -sim); empty = all")
	seed := flag.Int64("seed", 42, "workload seed")
	out := flag.String("out", "", "write E11/E13/E15..E17/E19/-sim results as JSON to this file")
	simMode := flag.Bool("sim", false, "run the deterministic-simulation torture campaign (E14) instead of the experiment tables")
	iters := flag.Int("iters", 1000, "-sim: number of seeded iterations (iteration i runs seed+i)")
	simVolatile := flag.Bool("sim-volatile", false, "-sim: use a volatile store (lock faults only, no WAL/crash cycles)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odebench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "odebench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "odebench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "odebench: memprofile: %v\n", err)
			}
		}()
	}

	if *simMode {
		return runSim(*iters, *seed, *simVolatile, *out)
	}

	all := []struct {
		id  string
		run func() error
	}{
		{"E1", func() error { return e1(*seed) }},
		{"E2", e2},
		{"E3", e3},
		{"E4", e4},
		{"E5", e5},
		{"E6", e6},
		{"E7", e7},
		{"E8", func() error { return e8(*seed) }},
		{"E9", e9},
		{"E10", func() error { return e10(*seed) }},
		{"E11", func() error { return e11(*seed, *out) }},
		{"E13", func() error { return e13(*seed, *out) }},
		{"E15", func() error { return e15(*seed, *out) }},
		{"E16", func() error { return e16(*out) }},
		{"E17", func() error { return e17(*seed, *out) }},
		{"E18", e18},
		{"E19", func() error { return e19(*out) }},
	}
	ran := false
	for _, e := range all {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "odebench: %s: %v\n", e.id, err)
			return 1
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "odebench: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

func table(title string, header []string, rows [][]string) {
	fmt.Println(title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  "+strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, "  "+strings.Join(r, "\t"))
	}
	w.Flush()
}

func e1(seed int64) error {
	rows := workload.RunE1([]int{100, 1000, 10000}, seed)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Expr,
			fmt.Sprintf("%d", r.HistoryLen),
			fmt.Sprintf("%.0f", r.AutomatonNsPerEvent),
			fmt.Sprintf("%.0f", r.NaiveNsPerEvent),
			fmt.Sprintf("%.0fx", r.Speedup),
		})
	}
	table("E1 — detection cost per posted event: compiled automaton vs naive §4 re-evaluation",
		[]string{"trigger", "history", "automaton ns/ev", "naive ns/ev", "speedup"}, out)
	return nil
}

func e2() error {
	rows := workload.RunE2([]int{10, 100, 1000, 10000}, 8)
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.HistoryLen),
			fmt.Sprintf("%d", r.AutomatonBytesPerObject),
			fmt.Sprintf("%d", r.HistoryBytesPerObject),
		})
	}
	table("E2 — per-object detection state, 8 active triggers (§5: one word per trigger per object)",
		[]string{"history len", "automaton B/obj", "retained-history B/obj"}, out)

	er, err := workload.RunE2Engine(64)
	if err != nil {
		return err
	}
	fmt.Printf("  live engine check: %d objects × %d triggers → %d state words per object\n",
		er.Objects, er.TriggersPerObject, er.StateWordsPerObject)
	return nil
}

func e3() error {
	rows := workload.RunE3()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Expr,
			fmt.Sprintf("%d", r.ExprNodes),
			fmt.Sprintf("%d", r.DFAStates),
			fmt.Sprintf("%d", r.Symbols),
			fmt.Sprintf("%d", r.TableBytes),
		})
	}
	table("E3 — minimized automaton sizes for the paper's trigger events (§4 ≡ regular languages)",
		[]string{"trigger", "expr nodes", "DFA states", "symbols", "table bytes"}, out)
	return nil
}

func e4() error {
	rows, err := workload.RunE4(10)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Masks),
			fmt.Sprintf("%d", r.Symbols),
			fmt.Sprintf("%d", r.DFAStates),
			fmt.Sprintf("%.2f", r.ResolveMs),
		})
	}
	table("E4 — §5 mask-disjointness rewrite: k overlapping masks on one basic event (block = 2^k)",
		[]string{"masks k", "alphabet symbols", "union DFA states", "resolve+compile ms"}, out)
	return nil
}

func e5() error {
	rows := workload.RunE5()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Expr,
			fmt.Sprintf("%d", r.AStates),
			fmt.Sprintf("%d", r.APrimStates),
			fmt.Sprintf("%d", r.Bound),
		})
	}
	table("E5 — §6 Claim: committed-view automaton A → whole-history A' (pairs; bound |A|²)",
		[]string{"trigger", "|A|", "|A'|", "|A|²"}, out)
	return nil
}

func e6() error {
	rows, err := workload.RunE6()
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Mode,
			fmt.Sprintf("%d", r.DFAStates),
			fmt.Sprintf("%d", r.Symbols),
		})
	}
	table("E6 — §7: every E-C-A coupling mode as a plain event expression (E-A model)",
		[]string{"coupling", "DFA states", "symbols"}, out)
	return nil
}

func e7() error {
	rows, err := workload.RunE7()
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Spec, r.Horizon, fmt.Sprintf("%d", r.Fires), fmt.Sprintf("%d", r.Expected)})
	}
	table("E7 — time events on the virtual clock (§3.1; footnote 1)",
		[]string{"specification", "horizon", "fires", "expected"}, out)
	return nil
}

func e9() error {
	rows := workload.RunE9()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Expr,
			fmt.Sprintf("%.0f", r.WithMinUs),
			fmt.Sprintf("%.0f", r.WithoutMinUs),
			fmt.Sprintf("%d", r.FinalStates),
		})
	}
	table("E9 — ablation: minimize at every operator node vs only at the end",
		[]string{"trigger", "with-min µs", "without µs", "final states"}, out)
	return nil
}

func e10(seed int64) error {
	r, err := workload.RunE10(500, 16, seed)
	if err != nil {
		return err
	}
	fmt.Println("E10 — observability: per-trigger metrics for a traced 500-tx banking workload")
	fmt.Printf("  stats: %d tx committed, %d happenings, %d steps, %d firings; trace: %d retained of %d\n",
		r.Stats.TxCommitted, r.Stats.Happenings, r.Stats.Steps, r.Stats.Firings,
		r.TraceRetained, r.TraceTotal)
	blob, err := json.MarshalIndent(r.Metrics, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println("  " + string(blob))
	return nil
}

func e11(seed int64, out string) error {
	gs := []int{1, 2, 4, 8}
	volatile, err := workload.RunE11(250, 32, seed, false, gs)
	if err != nil {
		return err
	}
	persistent, err := workload.RunE11(100, 32, seed, true, gs)
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	fmt.Printf("E11 — parallel posting over disjoint object partitions (GOMAXPROCS=%d, NumCPU=%d)\n",
		gomaxprocs, numCPU)
	rows := make([][]string, 0, len(volatile)+len(persistent))
	for _, rs := range [][]workload.E11Row{volatile, persistent} {
		for _, r := range rs {
			mode := "volatile"
			if r.Persistent {
				mode = "persistent"
			}
			rows = append(rows, []string{
				mode,
				fmt.Sprintf("%d", r.Goroutines),
				fmt.Sprintf("%d", r.Calls),
				fmt.Sprintf("%.0f", r.OpsPerSec),
				fmt.Sprintf("%.2fx", r.Speedup),
			})
		}
	}
	table("", []string{"store", "goroutines", "calls", "ops/sec", "speedup vs 1"}, rows)

	if out == "" {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string            `json:"experiment"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"num_cpu"`
		Volatile   []workload.E11Row `json:"volatile"`
		Persistent []workload.E11Row `json:"persistent"`
	}{"E11", gomaxprocs, numCPU, volatile, persistent}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}

func e13(seed int64, out string) error {
	r, err := workload.RunE13(10, seed)
	if err != nil {
		return err
	}
	fmt.Println("E13 — compact shared automata: hash-consed, row-deduplicated narrow tables")
	table("", []string{"triggers", "distinct exprs", "tables", "fat B", "compact B", "reduction", "hit rate"},
		[][]string{{
			fmt.Sprintf("%d", r.Triggers),
			fmt.Sprintf("%d", r.DistinctExprs),
			fmt.Sprintf("%d", r.Tables),
			fmt.Sprintf("%d", r.FatBytes),
			fmt.Sprintf("%d", r.CompactBytes),
			fmt.Sprintf("%.1fx", r.Reduction),
			fmt.Sprintf("%.2f", r.HitRate),
		}})
	fmt.Printf("  raw stepping: compact %.1f ns/step, fat oracle %.1f ns/step\n",
		r.CompactNsPerStep, r.OracleNsPerStep)

	if out == "" {
		return nil
	}
	// The hot-path guarantee rides along: rerun E12 so BENCH_PR4.json
	// shows posting ns/op did not regress against the PR 3 baseline.
	hot, err := workload.RunE12(20000)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string             `json:"experiment"`
		Compact    workload.E13Result `json:"compact"`
		HotPath    []workload.E12Row  `json:"hot_path"`
	}{"E13", r, hot}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}

func e15(seed int64, out string) error {
	rates := []float64{2000, 10000, 50000}
	rows, err := workload.RunE15(2000, 32, 16, seed, rates)
	if err != nil {
		return err
	}
	tbl := make([][]string, 0, len(rows))
	for _, r := range rows {
		tbl = append(tbl, []string{
			fmt.Sprintf("%.0f", r.TargetRate),
			fmt.Sprintf("%.0f", r.AchievedRate),
			us(r.P50Ns),
			us(r.P90Ns),
			us(r.P99Ns),
			us(r.P999Ns),
			us(r.MaxNs),
			fmt.Sprintf("%d", r.Late),
		})
	}
	table("E15 — open-loop latency from intended start (coordinated-omission-safe)",
		[]string{"target/s", "achieved/s", "p50", "p90", "p99", "p99.9", "max", "late"}, tbl)

	if out == "" {
		return nil
	}
	// The zero-alloc posting guarantee rides along, as in E13: rerun
	// E12 so the JSON shows the hot path did not regress under the
	// always-on flight recorder and provenance journals.
	hot, err := workload.RunE12(20000)
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	blob, err := json.MarshalIndent(struct {
		Experiment string            `json:"experiment"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"num_cpu"`
		OpenLoop   []workload.E15Row `json:"open_loop"`
		HotPath    []workload.E12Row `json:"hot_path"`
	}{"E15", gomaxprocs, numCPU, rows, hot}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}

func e16(out string) error {
	rows, err := workload.RunE16(131072, []int{16, 64, 256, 1024})
	if err != nil {
		return err
	}
	tbl := make([][]string, 0, len(rows))
	for _, r := range rows {
		tbl = append(tbl, []string{
			r.Scenario,
			r.Mode,
			fmt.Sprintf("%d", r.BatchSize),
			fmt.Sprintf("%.0f", r.NsPerH),
			fmt.Sprintf("%.2f", r.AllocsPerH),
			fmt.Sprintf("%.0f", r.PerSec),
			fmt.Sprintf("%.2fx", r.SpeedupSingle),
		})
	}
	table("E16 — batch posting: Tx.PostBatch batch-size sweep vs the single-post volatile baseline",
		[]string{"scenario", "mode", "batch", "ns/happening", "allocs/happening", "happenings/sec", "speedup"}, tbl)

	if out == "" {
		return nil
	}
	// The single-post guarantee rides along, as in E13/E15: rerun E12
	// so the JSON shows the Tx.Call hot path did not regress while the
	// batch path was added.
	hot, err := workload.RunE12(20000)
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	blob, err := json.MarshalIndent(struct {
		Experiment string            `json:"experiment"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"num_cpu"`
		Batch      []workload.E16Row `json:"batch"`
		HotPath    []workload.E12Row `json:"hot_path"`
	}{"E16", gomaxprocs, numCPU, rows, hot}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}

func e17(seed int64, out string) error {
	rows, err := workload.RunE17(40000, 32, seed,
		[]int{1, 2, 4, 8}, []int{1, 4}, []int{1, 64})
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	fmt.Printf("E17 — partitioned scaling: single-writer loops × producers × batch (GOMAXPROCS=%d, NumCPU=%d)\n",
		gomaxprocs, numCPU)
	tbl := make([][]string, 0, len(rows))
	for _, r := range rows {
		tbl = append(tbl, []string{
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.Goroutines),
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%d", r.Calls),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2fx", r.SpeedupVsP1),
		})
	}
	table("", []string{"partitions", "goroutines", "batch", "calls", "happenings/sec", "vs P=1 single"}, tbl)

	if out == "" {
		return nil
	}
	// The no-regression guarantees ride along: rerun E12 (single-post
	// hot path) and E16 (single-engine batch posting) so the JSON shows
	// neither path regressed while the partitioned layer was added.
	hot, err := workload.RunE12(20000)
	if err != nil {
		return err
	}
	batch, err := workload.RunE16(131072, []int{64, 256})
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string            `json:"experiment"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"num_cpu"`
		Scaling    []workload.E17Row `json:"scaling"`
		HotPath    []workload.E12Row `json:"hot_path"`
		Batch      []workload.E16Row `json:"batch"`
	}{"E17", gomaxprocs, numCPU, rows, hot, batch}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}

func e18() error {
	rows, err := workload.RunE18([]int{10000, 100000}, 10, []int{2, 8})
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	fmt.Printf("E18 — timer storm: cohort wheel delivery, one engine and partitioned (GOMAXPROCS=%d, NumCPU=%d)\n",
		gomaxprocs, numCPU)
	tbl := make([][]string, 0, len(rows))
	for _, r := range rows {
		tbl = append(tbl, []string{
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.Objects),
			fmt.Sprintf("%d", r.Posts),
			fmt.Sprintf("%d", r.Firings),
			fmt.Sprintf("%.0f", r.PostsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	table("", []string{"partitions", "objects", "timer posts", "firings", "posts/sec", "vs one engine"}, tbl)
	return nil
}

// us renders a nanosecond latency as microseconds for the tables.
func us(ns uint64) string {
	return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
}

func e8(seed int64) error {
	r := workload.RunE8(200000, seed)
	table("E8 — footnote 5 ablation: separate trigger automata vs one combined automaton",
		[]string{"triggers", "combined states", "separate ns/ev", "combined ns/ev", "speedup"},
		[][]string{{
			fmt.Sprintf("%d", r.Triggers),
			fmt.Sprintf("%d", r.CombinedStates),
			fmt.Sprintf("%.1f", r.SeparateNsPerEvent),
			fmt.Sprintf("%.1f", r.CombinedNsPerEvent),
			fmt.Sprintf("%.1fx", r.SeparateNsPerEvent/r.CombinedNsPerEvent),
		}})
	return nil
}

func e19(out string) error {
	res, err := workload.RunE19(20000, 131072, []int{64, 256}, 50000)
	if err != nil {
		return err
	}
	gomaxprocs, numCPU := workload.E11CPUs()
	fmt.Printf("E19 — egress overhead: hot paths with the durable firing feed on vs off, plus delivery throughput (GOMAXPROCS=%d, NumCPU=%d)\n",
		gomaxprocs, numCPU)

	tbl := make([][]string, 0, len(res.Hot))
	for _, r := range res.Hot {
		over := ""
		if r.Egress == "on" {
			over = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		tbl = append(tbl, []string{
			r.Scenario, r.Egress,
			fmt.Sprintf("%.1f", r.NsPerOp),
			fmt.Sprintf("%.3f", r.AllocsPerOp),
			fmt.Sprintf("%d", r.Firings),
			over,
		})
	}
	table("single-post hot path (E12 rerun)",
		[]string{"scenario", "egress", "ns/op", "allocs/op", "firings", "overhead"}, tbl)

	tbl = tbl[:0]
	for _, r := range res.Batch {
		over := ""
		if r.Egress == "on" {
			over = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		tbl = append(tbl, []string{
			r.Scenario,
			fmt.Sprintf("%d", r.BatchSize),
			r.Egress,
			fmt.Sprintf("%.1f", r.NsPerH),
			fmt.Sprintf("%.3f", r.AllocsPerH),
			over,
		})
	}
	table("batch posting (E16 rerun)",
		[]string{"scenario", "batch", "egress", "ns/happening", "allocs/happening", "overhead"}, tbl)

	tbl = tbl[:0]
	for _, r := range res.Delivery {
		tbl = append(tbl, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%.1f", r.NsPerRecord),
			fmt.Sprintf("%.0f", r.RecordsPerSec),
			fmt.Sprintf("%d", r.CursorSaves),
		})
	}
	table("deliverer drain", []string{"mode", "records", "ns/record", "records/sec", "cursor saves"}, tbl)

	if out == "" {
		return nil
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string             `json:"experiment"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		NumCPU     int                `json:"num_cpu"`
		Egress     workload.E19Result `json:"egress"`
	}{"E19", gomaxprocs, numCPU, res}, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", out)
	return nil
}
