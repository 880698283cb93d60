package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"ode/internal/compile"
	"ode/internal/engine"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
)

var epoch = time.Now()

// nowNs is the harness's monotonic clock.
func nowNs() int64 { return int64(time.Since(epoch)) }

// Frozen shape of every run (see README.md, "Frozen constants").
const (
	windows    = 7 // measured windows; one more runs first, untimed
	failureCap = 8 // failure messages kept per run

	// setup_s is the median of at least setupRepsMin set-ups; cheap
	// set-ups are repeated further, up to setupRepsMax times or until
	// setupBudget has been spent, because a 0.3 s set-up timed three
	// times has a run-to-run spread of 20 %.
	setupRepsMin = 3
	setupRepsMax = 9
	setupBudget  = 2 * time.Second
)

// config is one run's parameters. scale shrinks object and operation
// counts for the tests; the driver always runs at scale 1.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
}

// scaled returns n shrunk by the run's scale, at least min.
func (c *config) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		return min
	}
	return v
}

// tempDir makes a fresh directory under the run's output directory,
// which is inside the checkout.
func (c *config) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, prefix)
}

// perWindow returns how many operations one window holds for a
// workload calibrated to ratePerSec operations per second: the count is
// a function of -seconds alone, never of how fast this run happens to
// go, so count metrics repeat exactly.
func (c *config) perWindow(ratePerSec float64, min int) int {
	return c.scaled(int(ratePerSec*c.seconds/windows), min)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Digest    string             `json:"input_digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	SelfTimes []selfRow          `json:"self_times,omitempty"`
	WallS     float64            `json:"wall_s"`

	heapBase  uint64
	traceFile string  // where a traced run's spans went
	rootMs    float64 // total duration of a traced run's root spans
}

// markHeapEnd reports heap_mb_end: what the program retains (records,
// tables, the in-memory feed) beyond the heap the harness held before
// the set-up. A workload calls it at the end of its last window;
// later calls are ignored.
func (r *result) markHeapEnd() {
	if _, done := r.Metrics["heap_mb_end"]; done {
		return
	}
	heap := heapAfterGC()
	if heap < r.heapBase {
		heap = r.heapBase
	}
	r.putv("heap_mb_end", float64(heap-r.heapBase)/(1<<20))
}

func (r *result) put(name string, s summary) {
	def, ok := metricDefs[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	if s.Unit != def.Unit {
		panic(fmt.Sprintf("bench: metric %s reported in %q, declared in %q", name, s.Unit, def.Unit))
	}
	r.Metrics[name] = s
}

// putv reports a metric from its samples, in its declared unit.
func (r *result) putv(name string, samples ...float64) {
	r.put(name, summarize(metricDefs[name].Unit, samples...))
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < failureCap {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. generate builds every input from
// the seed before anything is timed; setup is timed and repeated;
// measure runs the warm-up and the measured windows and checks the
// outputs against the model.
type workload interface {
	generate(cfg *config) (digest string)
	setup() error
	teardown()
	measure(res *result, tr *tracer)
}

var workloads = map[string]func() workload{
	"single_masked": func() workload { return &singleMasked{} },
	"batch_durable": func() workload { return &batchDurable{} },
	"webhook_open":  func() workload { return &webhookOpen{} },
	"timer_storm":   func() workload { return &timerStorm{} },
}

// workloadOrder is the order -all runs them in.
var workloadOrder = []string{"single_masked", "batch_durable", "webhook_open", "timer_storm"}

// runWorkload performs one run: generate, set up several times,
// measure, check. Untraced runs report the end-to-end metrics; traced
// runs add the spans, the replay cells and every per-layer metric.
func runWorkload(cfg *config) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return runWith(cfg, mk())
}

// runWith is runWorkload on a workload value the caller built (the
// tests set its hooks first).
func runWith(cfg *config, w workload) (*result, error) {
	began := time.Now()
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Metrics: map[string]summary{}}
	res.Digest = w.generate(cfg)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(traceCapacity)
	}
	var setups []float64
	var spent time.Duration
	for rep := 0; rep < setupRepsMin || (rep < setupRepsMax && spent < setupBudget); rep++ {
		if rep > 0 {
			w.teardown()
		}
		// Every set-up compiles its triggers from a cold automaton
		// cache and starts from a collected heap, so the repetitions
		// measure the same work.
		compile.ResetAutomatonCache()
		res.heapBase = heapAfterGC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	res.putv("setup_s", setups...)

	w.measure(res, tr)
	res.markHeapEnd()
	w.teardown()

	if tr != nil {
		replayCells(cfg, res)
		var rootNs int64
		res.SelfTimes, rootNs = tr.selfTimes()
		res.rootMs = float64(rootNs) / 1e6
		res.putv("bench.spans_dropped", float64(tr.dropped.Load()))
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		res.traceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.write(res.traceFile, cfg.workload); err != nil {
			return nil, err
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.putv("failed_share", float64(res.Failed)/float64(res.Attempted))
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// meter measures one window from outside: wall time, allocations, GC
// activity and the engine counters, as deltas.
type meter struct {
	t0    time.Time
	ms    runtime.MemStats
	cpu   [2]float64
	stats engine.Stats
}

// cpuSeconds reads the runtime's estimate of CPU seconds spent in the
// garbage collector and in total.
func cpuSeconds() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// windowDelta is what one window cost.
type windowDelta struct {
	seconds  float64
	mallocs  float64
	gcCycles float64
	gcShare  float64 // GC CPU seconds ÷ all CPU seconds
	stats    engine.Stats
}

func startMeter(stats engine.Stats) *meter {
	m := &meter{stats: stats, cpu: cpuSeconds()}
	runtime.ReadMemStats(&m.ms)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(stats engine.Stats) windowDelta {
	d := windowDelta{seconds: time.Since(m.t0).Seconds()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.mallocs = float64(ms.Mallocs - m.ms.Mallocs)
	d.gcCycles = float64(ms.NumGC - m.ms.NumGC)
	if cpu := cpuSeconds(); cpu[1] > m.cpu[1] {
		d.gcShare = (cpu[0] - m.cpu[0]) / (cpu[1] - m.cpu[1])
	}
	d.stats = stats.Delta(m.stats)
	return d
}

// openWindow starts window win. In a traced run the odd measured
// windows are traced and the even ones are not, over the same engine:
// that pair is what bench.trace_overhead_share compares. A traced
// window gets a root span, which the caller finishes.
func openWindow(tr *tracer, win int) (traced bool, root int32) {
	if tr == nil || win <= 0 || win%2 == 0 {
		return false, 0
	}
	return true, tr.begin(spWindow, 0, 0)
}

// windowSet collects the per-window samples every closed-loop workload
// reports the same way.
type windowSet struct {
	happenings int // posted basic events per window
	deltas     []windowDelta
	tailQ      float64   // the tail quantile: 0.99, or 0.90 where a run has too few operations
	p50, tail  []float64 // per-window latency quantiles, µs
	traced     []bool
	pooled     []int64 // every measured window's latencies, ns
}

// add closes a window: lat holds its per-request latencies in ns.
func (ws *windowSet) add(d windowDelta, lat []int64, traced bool) {
	s := sortedCopy(lat)
	ws.deltas = append(ws.deltas, d)
	ws.p50 = append(ws.p50, quantile(s, 0.5)/1e3)
	ws.tail = append(ws.tail, quantile(s, ws.tailQ)/1e3)
	ws.traced = append(ws.traced, traced)
	ws.pooled = append(ws.pooled, lat...)
}

// report turns the windows into the shared end-to-end metrics, the
// engine count ratios and the harness's validity metrics.
func (ws *windowSet) report(res *result) {
	h := float64(ws.happenings)
	var rate, allocs, steps, evals, firings, rounds, gcShare, gcCycles []float64
	var rateOn, rateOff []float64
	var seconds float64
	for i, d := range ws.deltas {
		seconds += d.seconds
		r := h / d.seconds
		rate = append(rate, r)
		if ws.traced[i] {
			rateOn = append(rateOn, r)
		} else {
			rateOff = append(rateOff, r)
		}
		allocs = append(allocs, d.mallocs/h)
		steps = append(steps, float64(d.stats.Steps)/h)
		evals = append(evals, float64(d.stats.MaskEvals)/h)
		firings = append(firings, float64(d.stats.Firings)/h)
		if tx := d.stats.TxCommitted; tx > 0 {
			rounds = append(rounds, float64(d.stats.TcompleteRounds)/float64(tx))
		}
		gcShare = append(gcShare, d.gcShare)
		gcCycles = append(gcCycles, d.gcCycles)
	}
	// The headline values pool all measured windows (README.md,
	// "Estimators"); the per-window values give the spread columns.
	pooled := sortedCopy(ws.pooled)
	res.put("happenings_per_s", summarize("1/s", rate...).withValue(h*float64(len(ws.deltas))/seconds))
	res.put("effect_p50_us", summarize("us", ws.p50...).withValue(quantile(pooled, 0.5)/1e3))
	res.put("effect_tail_us", summarize("us", ws.tail...).withValue(quantile(pooled, ws.tailQ)/1e3))
	res.putv("allocs_per_happening", allocs...)
	res.putv("engine.steps_per_happening", steps...)
	res.putv("engine.mask_evals_per_happening", evals...)
	res.putv("engine.firings_per_happening", firings...)
	if len(rounds) > 0 {
		res.putv("engine.tcomplete_rounds_per_tx", rounds...)
	}
	res.putv("bench.gc_cpu_share", gcShare...)
	res.putv("bench.gc_cycles", gcCycles...)
	if len(rateOn) > 0 && len(rateOff) > 0 {
		on, off := summarize("", rateOn...).Value, summarize("", rateOff...).Value
		res.putv("bench.trace_overhead_share", 1-on/off)
	}
}

// rejectRatio is mask.reject_ratio: false verdicts over evaluations,
// from the engines' own per-trigger counters.
func rejectRatio(snaps ...obs.Snapshot) float64 {
	var evals, falses uint64
	for _, s := range snaps {
		for _, t := range s.Triggers {
			evals += t.MaskEvals
			falses += t.MaskFalse
		}
	}
	if evals == 0 {
		return 0
	}
	return float64(falses) / float64(evals)
}

// timedRegister is the span around Engine.RegisterClass, in ms.
func timedRegister(eng *engine.Engine, cls *schema.Class, impl engine.ClassImpl) (float64, error) {
	t0 := nowNs()
	_, err := eng.RegisterClass(cls, impl, nil)
	return float64(nowNs()-t0) / 1e6, err
}

// hitRatio is compile.cache_hit_ratio: the share of trigger
// compilations the process-wide automaton cache answered since the
// set-up reset it.
func hitRatio(st engine.Stats) float64 {
	if st.CompileCacheHits+st.CompileCacheMisses == 0 {
		return 0
	}
	return float64(st.CompileCacheHits) / float64(st.CompileCacheHits+st.CompileCacheMisses)
}

// checkAccounts is the output check of the account workloads: the
// firings the actions saw must equal the model's, object by object and
// in order, and every balance must equal the model's. Each differing
// object is one failed operation.
func checkAccounts(res *result, got *ledger, want *model, get func(obj int) (*store.Record, error)) {
	if bad, first := got.diff(want.led); bad > 0 {
		res.fail(int64(bad), "%d objects fired differently from the model; first: %s", bad, first)
	}
	bad := 0
	for obj, wantBal := range want.balance {
		rec, err := get(obj)
		if err == nil && rec.Fields["balance"].AsInt() == wantBal {
			continue
		}
		if bad == 0 {
			res.fail(0, "object %d: balance differs from the model's %d (err %v)", obj, wantBal, err)
		}
		bad++
	}
	res.Failed += int64(bad)
}

// spanDurations returns the durations of the named spans among spans.
func spanDurations(spans []span, name int) []int64 {
	var out []int64
	for _, s := range spans {
		if int(s.Name) == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// putSpan reports the median (and spread) of the named span's
// durations, divided by div to convert from ns.
func putSpan(res *result, tr *tracer, metric string, name int, div float64) {
	d := tr.durations(name)
	if len(d) == 0 {
		return
	}
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / div
	}
	res.putv(metric, v...)
}
