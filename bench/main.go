// Command bench is the repository's one benchmark: four workloads over
// the posting and delivery spine, end-to-end metrics from an untraced
// run, per-layer metrics from a traced run and from replay cells, every
// output checked against a plain-Go model. BENCHMARK.json at the
// repository root declares it; README.md explains it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const schemaVersion = 1

// document is the one JSON document -all and -aa print.
type document struct {
	Schema     int       `json:"schema_version"`
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	GOGC       string    `json:"gogc"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Results    []*result `json:"results"`
	NoiseFloor []aaRow   `json:"noise_floor,omitempty"`
}

func newDocument(seed uint64, seconds float64) *document {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return &document{Schema: schemaVersion, GitSHA: sha, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOGC: gogc, Seed: seed, Seconds: seconds}
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: "+strings.Join(workloadOrder, ", "))
		all     = flag.Bool("all", false, "run every workload and print one JSON document")
		aa      = flag.Bool("aa", false, "run every workload twice and compare the two sets against the bounds")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 12, "how long one run's windows are sized to measure")
		trace   = flag.Int("trace", 0, "1: traced run, spans to <out>/trace-<workload>.json, per-layer metrics")
		out     = flag.String("out", "out", "directory for span files, results and temporary databases")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: *out}
	var err error
	switch {
	case *aa:
		err = runAA(cfg)
	case *all:
		err = runAll(cfg)
	case *name != "":
		cfg.workload = *name
		err = runOne(cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one run, and as the last
// line of standard output one JSON object with the end-to-end metrics
// (untraced) or every per-layer metric (traced).
func runOne(cfg config) error {
	res, err := runWorkload(&cfg)
	if err != nil {
		return err
	}
	printResult(res)
	names := endToEnd
	if cfg.trace {
		names = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, n := range names {
		// A per-layer metric this workload does not exercise reads 0.
		line.Metrics[n] = value{res.Metrics[n].Value, metricDefs[n].Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// runSet runs the workloads in the given order, untraced and — when
// cfg.trace — traced as well.
func runSet(cfg config, order []string) ([]*result, error) {
	var out []*result
	for _, name := range order {
		for _, traced := range []bool{false, true} {
			if traced && !cfg.trace {
				continue
			}
			c := cfg
			c.workload, c.trace = name, traced
			res, err := runWorkload(&c)
			if err != nil {
				return out, err
			}
			printResult(res)
			out = append(out, res)
		}
	}
	return out, nil
}

func runAll(cfg config) error {
	doc := newDocument(cfg.seed, cfg.seconds)
	var err error
	if doc.Results, err = runSet(cfg, workloadOrder); err != nil {
		return err
	}
	return finish(cfg, doc)
}

// finish prints the document, keeps a copy under the output directory,
// and fails when any operation failed.
func finish(cfg config, doc *document) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), b, 0o644); err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, r := range doc.Results {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
		}
	}
	return nil
}

// aaRow is one (metric, workload) of the A/A comparison: the same code
// run twice. Worse is how much worse the second set's median is than
// the first's, as a share of the first (negative: better).
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Worse    float64 `json:"worse_share"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// runAA measures the noise floor: the full untraced set twice in one
// invocation, the second time in reverse workload order.
func runAA(cfg config) error {
	cfg.trace = false
	doc := newDocument(cfg.seed, cfg.seconds)
	a, err := runSet(cfg, workloadOrder)
	if err != nil {
		return err
	}
	reversed := make([]string, len(workloadOrder))
	for i, n := range workloadOrder {
		reversed[len(reversed)-1-i] = n
	}
	b, err := runSet(cfg, reversed)
	if err != nil {
		return err
	}
	doc.Results = append(a, b...)
	second := map[string]*result{}
	for _, r := range b {
		second[r.Workload] = r
	}
	over := 0
	fmt.Printf("\n%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, ra := range a {
		for _, m := range endToEnd {
			def := metricDefs[m]
			va, vb := ra.Metrics[m].Value, second[ra.Workload].Metrics[m].Value
			worse := (vb - va) / va
			if def.Better == "higher" {
				worse = -worse
			}
			row := aaRow{ra.Workload, m, va, vb, worse, def.Bound, worse <= def.Bound}
			mark := ""
			if !row.Within {
				over++
				mark = "  EXCEEDS"
			}
			doc.NoiseFloor = append(doc.NoiseFloor, row)
			fmt.Printf("%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", row.Workload, m, va, vb, 100*worse, 100*def.Bound, mark)
		}
	}
	if err := finish(cfg, doc); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d end-to-end metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}

// printResult prints the human table: every metric by name with its
// unit, median, quartiles, range and sample count; then the self-time
// table of a traced run.
func printResult(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s)  seed %d  input sha256 %s  attempted %d  failed %d  wall %.1f s\n",
		r.Workload, mode, r.Seed, r.Digest, r.Attempted, r.Failed, r.WallS)
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
	fmt.Printf("%-36s %-6s %14s %14s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
	names := append(append([]string(nil), endToEnd...), perLayer()...)
	for _, n := range names {
		s, ok := r.Metrics[n]
		if !ok {
			continue
		}
		fmt.Printf("%-36s %-6s %14s %14s %14s %14s %14s %6d\n", n, s.Unit, num(s.Value), num(s.Q1), num(s.Q3), num(s.Min), num(s.Max), s.N)
	}
	if len(r.SelfTimes) > 0 {
		var total float64
		fmt.Printf("%-36s %10s %12s %8s %14s\n", "span (self time)", "count", "self ms", "share", "median ns")
		for _, row := range r.SelfTimes {
			total += row.SelfMs
			fmt.Printf("%-36s %10d %12.2f %7.1f%% %14.0f\n", row.Name, row.Count, row.SelfMs, 100*row.Share, row.MedianNs)
		}
		fmt.Printf("%-36s %10s %12.2f\n", "sum of self times", "", total)
	}
}

// num prints a value with six significant digits.
func num(v float64) string {
	if v != 0 && (math.Abs(v) >= 1e7 || math.Abs(v) < 1e-3) {
		return fmt.Sprintf("%.5e", v)
	}
	return fmt.Sprintf("%.6g", v)
}
