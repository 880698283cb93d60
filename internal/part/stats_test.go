package part

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ode/internal/engine"
	"ode/internal/obs"
	"ode/internal/value"
)

// workedDB returns a 3-partition DB with activity on every partition.
func workedDB(t *testing.T) *DB {
	t.Helper()
	db := openBank(t, 3, "", &fireLog{}, engine.Options{})
	t.Cleanup(func() { db.Close() })
	oids := newAccounts(t, db)
	for i, oid := range oids {
		for j := 0; j <= i; j++ { // uneven load so per-partition stats differ
			if _, err := db.Call(oid, "deposit", value.Int(50)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Call(oid, "withdraw", value.Int(200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Drain()
	return db
}

// TestAggregateStatsSumPerPartition: DB.Stats is the field-wise sum of
// PartitionStats, except the process-wide compile-cache counters which
// are taken once.
func TestAggregateStatsSumPerPartition(t *testing.T) {
	db := workedDB(t)
	agg := db.Stats()
	per := db.PartitionStats()
	if len(per) != db.N() {
		t.Fatalf("PartitionStats returned %d entries for %d partitions", len(per), db.N())
	}
	var sum engine.Stats
	for i, s := range per {
		if i > 0 {
			s.CompileCacheHits, s.CompileCacheMisses = 0, 0
		}
		sum = addStats(sum, s)
	}
	if sum != agg {
		t.Fatalf("aggregate != per-partition sum:\nagg %+v\nsum %+v", agg, sum)
	}
	// The uneven load above must actually show up per partition —
	// otherwise the sum test is vacuous.
	if per[0].Firings == per[2].Firings {
		t.Fatalf("expected uneven per-partition load, got %d == %d", per[0].Firings, per[2].Firings)
	}
}

// TestPartitionedDebugConsistency extends the engine's expvar/metrics
// consistency test to the partitioned views: /debug/stats (aggregate +
// per-partition), /debug/metrics (merged exposition), the per-engine
// expvar snapshots and the per-partition sub-handlers must all present
// the same counters while quiescent.
func TestPartitionedDebugConsistency(t *testing.T) {
	db := workedDB(t)
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	// 1. /debug/stats: aggregate equals the sum of the per_partition
	// array it itself reports.
	var statsDoc struct {
		Partitions int            `json:"partitions"`
		Aggregate  engine.Stats   `json:"aggregate"`
		PerPart    []engine.Stats `json:"per_partition"`
	}
	getJSON(t, srv, "/debug/stats", &statsDoc)
	if statsDoc.Partitions != db.N() || len(statsDoc.PerPart) != db.N() {
		t.Fatalf("stats doc shape: %+v", statsDoc)
	}
	var sum engine.Stats
	for i, s := range statsDoc.PerPart {
		if i > 0 {
			s.CompileCacheHits, s.CompileCacheMisses = 0, 0
		}
		sum = addStats(sum, s)
	}
	if sum != statsDoc.Aggregate {
		t.Fatalf("/debug/stats aggregate disagrees with its own per-partition array:\n%+v\n%+v",
			statsDoc.Aggregate, sum)
	}

	// 2. /debug/metrics: the ode_engine_* series carry the aggregate
	// counters, and the per-trigger firing series sum to the aggregate
	// firing total.
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := map[string]float64{}
	var firingSeriesSum float64
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
		if strings.HasPrefix(line, "ode_trigger_firings_total{") {
			firingSeriesSum += v
		}
	}
	agg := statsDoc.Aggregate
	for name, want := range map[string]uint64{
		"ode_engine_tx_begun_total":     agg.TxBegun,
		"ode_engine_tx_committed_total": agg.TxCommitted,
		"ode_engine_happenings_total":   agg.Happenings,
		"ode_engine_steps_total":        agg.Steps,
		"ode_engine_mask_evals_total":   agg.MaskEvals,
		"ode_engine_firings_total":      agg.Firings,
	} {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s: /debug/metrics says %g, /debug/stats says %d", name, got, want)
		}
	}
	if uint64(firingSeriesSum) != agg.Firings {
		t.Fatalf("per-trigger firing series sum to %g, aggregate Firings is %d",
			firingSeriesSum, agg.Firings)
	}

	// 3. expvar: every partition engine publishes its Stats; the
	// published snapshots sum to the aggregate.
	names := db.ExpvarNames()
	var esum engine.Stats
	for i, name := range names {
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("expvar %q not published", name)
		}
		var s engine.Stats
		if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
			t.Fatalf("expvar %q: %v", name, err)
		}
		if i > 0 {
			s.CompileCacheHits, s.CompileCacheMisses = 0, 0
		}
		esum = addStats(esum, s)
	}
	if esum != agg {
		t.Fatalf("expvar sum disagrees with aggregate:\n%+v\n%+v", esum, agg)
	}

	// 4. Per-partition sub-handlers: partition p's own /debug/stats is
	// the same snapshot as slot p of the aggregate document.
	for p := 0; p < db.N(); p++ {
		var s engine.Stats
		getJSON(t, srv, "/debug/partition/"+strconv.Itoa(p)+"/debug/stats", &s)
		if s != statsDoc.PerPart[p] {
			t.Fatalf("partition %d sub-handler stats diverge:\n%+v\n%+v", p, s, statsDoc.PerPart[p])
		}
	}

	// 5. /debug/flight: merged events carry valid partition ids in
	// chronological order.
	var flightDoc struct {
		Partitions int               `json:"partitions"`
		Total      uint64            `json:"total"`
		Events     []obs.FlightEvent `json:"events"`
	}
	getJSON(t, srv, "/debug/flight", &flightDoc)
	if len(flightDoc.Events) == 0 {
		t.Fatal("merged flight dump is empty")
	}
	if flightDoc.Partitions != db.N() || flightDoc.Total != agg.FlightEvents {
		t.Fatalf("flight doc: %d partitions, total %d; want %d, %d", flightDoc.Partitions, flightDoc.Total, db.N(), agg.FlightEvents)
	}
	lastNs := int64(0)
	for _, ev := range flightDoc.Events {
		if ev.Part < 0 || ev.Part >= db.N() {
			t.Fatalf("flight event with partition id %d", ev.Part)
		}
		if ev.AtNs < lastNs {
			t.Fatalf("merged flight dump out of order: %d after %d", ev.AtNs, lastNs)
		}
		lastNs = ev.AtNs
	}
}

// TestMergeSnapshotsTotals: the merged metrics view preserves counter
// totals (MergeSnapshots neither loses nor double-counts).
func TestMergeSnapshotsTotals(t *testing.T) {
	db := workedDB(t)
	merged := db.Metrics()
	var mergedFirings, perFirings uint64
	for _, tr := range merged.Triggers {
		mergedFirings += tr.Firings
	}
	for _, pt := range db.PartitionStats() {
		perFirings += pt.Firings
	}
	if mergedFirings != perFirings {
		t.Fatalf("merged trigger firings %d != per-partition total %d", mergedFirings, perFirings)
	}
}

// TestPartitionedTimerGauges: the aggregate /debug/metrics exposition
// sums the per-partition timer gauges — every partition tracks its own
// cohorts over the objects it owns.
func TestPartitionedTimerGauges(t *testing.T) {
	db := openBank(t, 3, "", &fireLog{}, engine.Options{Start: timerStart}, timerTriggers()...)
	defer db.Close()
	for _, oid := range newAccounts(t, db) {
		if err := db.Activate(oid, "Tick"); err != nil {
			t.Fatal(err)
		}
		if err := db.Activate(oid, "Daily"); err != nil {
			t.Fatal(err)
		}
	}
	db.Drain()

	var wantPending, wantCohorts uint64
	for _, s := range db.PartitionStats() {
		if s.TimersPending == 0 || s.TimerCohorts == 0 {
			t.Fatalf("partition without timer state: %+v", s)
		}
		wantPending += s.TimersPending
		wantCohorts += s.TimerCohorts
	}

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndex(line, " "); sp >= 0 {
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				samples[line[:sp]] = v
			}
		}
	}
	for name, want := range map[string]uint64{
		"ode_engine_timers_pending":             wantPending,
		"ode_engine_timer_cohorts":              wantCohorts,
		"ode_engine_timer_errors_dropped_total": 0,
	} {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s = %g, want %d", name, got, want)
		}
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s => %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
