package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// testConfig is a run at 1/1000 size.
func testConfig(t *testing.T, workload string, seed uint64, trace bool) *config {
	return &config{workload: workload, seed: seed, seconds: 12, trace: trace, scale: 0.001, outDir: t.TempDir()}
}

// Every workload, shrunk, passes its reference-model check — untraced
// and traced, so the span paths and the replay cells run too.
func TestWorkloadsPassTheirModelCheck(t *testing.T) {
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(testConfig(t, name, 7, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", name, trace, res.Failed, res.Attempted, res.Failures)
			}
			for _, m := range endToEnd {
				if s, ok := res.Metrics[m]; !ok || s.Value <= 0 {
					t.Errorf("%s (trace %v): end-to-end metric %s is %v", name, trace, m, s.Value)
				}
			}
			if trace {
				if _, err := os.Stat(res.traceFile); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
				var self, root float64
				for _, row := range res.SelfTimes {
					self += row.SelfMs
				}
				root = res.rootMs
				if root <= 0 || self < 0.95*root || self > 1.05*root {
					t.Errorf("%s: self times sum to %.3f ms, the traced windows took %.3f ms", name, self, root)
				}
			}
		}
	}
}

// With rare amounts planted in every third transaction each of the
// eight event forms completes many times, so the model is compared
// with the engine where it matters, not only on rejected masks.
func TestModelMatchesEngineOnDensePlanting(t *testing.T) {
	cfg := testConfig(t, "single_masked", 11, false)
	cfg.scale = 0.02
	w := &singleMasked{plantEvery: 3}
	res, err := runWith(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d objects differ from the model: %v", res.Failed, res.Failures)
	}
	perTrigger := make([]uint64, w.want.led.nTrig)
	for i, c := range w.want.led.count {
		perTrigger[i%w.want.led.nTrig] += uint64(c)
	}
	for slot, n := range perTrigger {
		if n == 0 {
			t.Errorf("trigger %s never fired in the model", maskedTriggers()[slot].Name)
		}
	}
}

// The same seed gives the same inputs and the same count metrics; a
// different seed gives different inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	counts := []string{"engine.steps_per_happening", "engine.mask_evals_per_happening", "engine.firings_per_happening"}
	for _, name := range workloadOrder {
		a, err := runWorkload(testConfig(t, name, 3, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(testConfig(t, name, 3, false))
		if err != nil {
			t.Fatal(err)
		}
		c, err := runWorkload(testConfig(t, name, 4, false))
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 3 gave digests %s and %s", name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", name)
		}
		for _, m := range counts {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s is %v then %v with the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// Every declared metric has a well-formed name and unit and appears in
// BENCHMARK.json exactly as declared, and nothing else does.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for name, def := range metricDefs {
		if !nameRE.MatchString(name) || !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %q (unit %q) is not a well-formed name and unit", name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %s: better is %q", name, def.Better)
		}
	}
	seen := map[string]bool{}
	check := func(e entry, bounded bool) {
		def, ok := metricDefs[e.Name]
		if !ok {
			t.Errorf("BENCHMARK.json lists %s, which the program does not declare", e.Name)
			return
		}
		seen[e.Name] = true
		if def.Unit != e.Unit || def.Better != e.Better || def.Bound != e.Bound || (def.Bound > 0) != bounded {
			t.Errorf("%s: BENCHMARK.json says %+v, the program declares %+v", e.Name, e, def)
		}
	}
	for _, e := range manifest.EndToEnd {
		check(e, true)
	}
	for _, e := range manifest.PerLayer {
		check(e, false)
	}
	for name := range metricDefs {
		if !seen[name] {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(manifest.EndToEnd), len(endToEnd))
	}
	if len(manifest.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(manifest.Workloads), len(workloadOrder))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloadOrder[i])
		}
	}
}

// Coordinated omission: when the program stalls, the open-loop
// generator must say that it fell behind its schedule, and the
// latencies — taken from the due times — must contain the stall.
func TestOpenLoopReportsLateness(t *testing.T) {
	const stall = 5 * time.Millisecond // five times the mean gap at the reference rate
	res, err := runWith(testConfig(t, "webhook_open", 5, false), &webhookOpen{stall: stall})
	if err != nil {
		t.Fatal(err)
	}
	if late := res.Metrics["gen.late_share"].Value; late < 0.5 {
		t.Errorf("gen.late_share is %v with every transaction stalled for %v", late, stall)
	}
	if lag := res.Metrics["gen.max_lag_ms"].Value; lag < 5 {
		t.Errorf("gen.max_lag_ms is %v", lag)
	}
	if p50 := res.Metrics["effect_p50_us"].Value; p50 < float64(stall/time.Microsecond) {
		t.Errorf("effect_p50_us is %v, less than one stall: latency is not taken from the due time", p50)
	}
	if res.Metrics["gen.self_late_share"].Value > res.Metrics["gen.late_share"].Value {
		t.Error("more sends were late with a free inbox than were late at all")
	}
}
