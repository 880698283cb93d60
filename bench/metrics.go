package main

import "sort"

// metricDef declares one metric: every name the program reports must be
// here, and bench_test.go checks this table against BENCHMARK.json.
// Bound > 0 marks an end-to-end metric (the share of the parent's
// median by which it may worsen). Moves names, for a per-layer metric,
// the end-to-end metric it should move and on which workload.
type metricDef struct {
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

var metricDefs = map[string]metricDef{
	// End to end. Every workload reports every one of these.
	"setup_s":              {Unit: "s", Better: "lower", Bound: 0.25},
	"happenings_per_s":     {Unit: "1/s", Better: "higher", Bound: 0.25},
	"effect_p50_us":        {Unit: "us", Better: "lower", Bound: 0.25},
	"allocs_per_happening": {Unit: "count", Better: "lower", Bound: 0.02},
	"heap_mb_end":          {Unit: "MiB", Better: "lower", Bound: 0.05},

	// Workload-specific results a user sees; unbounded because the
	// benchmark contract wants every bounded metric on every workload.
	"effect_tail_us":                {Unit: "us", Better: "lower", Moves: "p99 of effect_p50_us's samples (p90 on timer_storm); demoted: spread 15–50 %"},
	"failed_share":                  {Unit: "ratio", Better: "lower", Moves: "failed / attempted, all workloads; must be 0"},
	"batch.checkpoint_s":            {Unit: "s", Better: "lower", Moves: "DB.Checkpoint after the last window, batch_durable"},
	"batch.recover_s":               {Unit: "s", Better: "lower", Moves: "Close, reopen, first Call, batch_durable"},
	"store.wal_bytes_per_happening": {Unit: "B", Better: "lower", Moves: "batch_durable, webhook_open"},
	"webhook.tx_p50_us":             {Unit: "us", Better: "lower", Moves: "due → commit ack at R_ref, webhook_open"},
	"webhook.tx_p99_us":             {Unit: "us", Better: "lower", Moves: "tail of webhook.tx_p50_us"},
	"webhook.max_rate_ok_per_s":     {Unit: "tx/s", Better: "higher", Moves: "highest rung with effect p99 ≤ 100 ms and no growing backlog"},

	// engine
	"engine.begin_ns":                   {Unit: "ns", Better: "lower", Moves: "effect_p50_us → single_masked"},
	"engine.call_ns":                    {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"engine.call_firing_ns":             {Unit: "ns", Better: "lower", Moves: "effect_p50_us → webhook_open"},
	"engine.call_ns_per_trigger":        {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked; none on timer_storm"},
	"engine.commit_ns":                  {Unit: "ns", Better: "lower", Moves: "effect_p50_us → single_masked"},
	"engine.commit_durable_us":          {Unit: "us", Better: "lower", Moves: "effect_p50_us → webhook_open, batch_durable"},
	"engine.postbatch_ns_per_happening": {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable; none on single_masked"},
	"engine.drift_ratio":                {Unit: "ratio", Better: "lower", Moves: "must stay ≈ 1 → single_masked"},
	"engine.steps_per_happening":        {Unit: "count", Better: "lower", Moves: "explains happenings_per_s → all"},
	"engine.mask_evals_per_happening":   {Unit: "count", Better: "lower", Moves: "explains happenings_per_s → all"},
	"engine.firings_per_happening":      {Unit: "count", Better: "lower", Moves: "explains happenings_per_s → all"},
	"engine.tcomplete_rounds_per_tx":    {Unit: "count", Better: "lower", Moves: "explains happenings_per_s → all"},
	"engine.register_class_ms":          {Unit: "ms", Better: "lower", Moves: "setup_s → all"},
	"engine.timer_tick_us":              {Unit: "us", Better: "lower", Moves: "happenings_per_s → timer_storm"},
	"engine.timer_posts_per_tick":       {Unit: "count", Better: "lower", Moves: "ledger → timer_storm"},
	"engine.timer_cohorts":              {Unit: "count", Better: "lower", Moves: "ledger → timer_storm"},

	// mask, fa, evlang, compile
	"mask.eval_ns":                   {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"mask.evalbits_ns":               {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"mask.reject_ratio":              {Unit: "ratio", Better: "higher", Moves: "explains firing share → all"},
	"mask.compile_us":                {Unit: "us", Better: "lower", Moves: "setup_s"},
	"fa.step_ns":                     {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"fa.table_bytes":                 {Unit: "B", Better: "lower", Moves: "heap_mb_end, setup_s"},
	"fa.states_total":                {Unit: "count", Better: "lower", Moves: "heap_mb_end, setup_s"},
	"evlang.parse_us_per_trigger":    {Unit: "us", Better: "lower", Moves: "setup_s"},
	"compile.compile_us_per_trigger": {Unit: "us", Better: "lower", Moves: "setup_s → single_masked"},
	"compile.cache_hit_ratio":        {Unit: "ratio", Better: "higher", Moves: "setup_s → batch_durable"},

	// txn, store
	"txn.begin_commit_ns":         {Unit: "ns", Better: "lower", Moves: "effect_p50_us → single_masked"},
	"txn.begin_commit_single_ns":  {Unit: "ns", Better: "lower", Moves: "effect_p50_us → batch_durable"},
	"txn.access_first_ns":         {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"txn.access_again_ns":         {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"store.logcommit_1_0_us":      {Unit: "us", Better: "lower", Moves: "webhook.tx_p50_us → webhook_open"},
	"store.logcommit_1_1_us":      {Unit: "us", Better: "lower", Moves: "effect_p50_us → webhook_open"},
	"store.logcommit_256_26_us":   {Unit: "us", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"store.wal_bytes_per_commit":  {Unit: "B", Better: "lower", Moves: "store.wal_bytes_per_happening"},
	"store.publish_ns_per_oid":    {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"store.get_ns":                {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"store.checkpoint_ms":         {Unit: "ms", Better: "lower", Moves: "batch.checkpoint_s"},
	"store.snapshot_bytes":        {Unit: "B", Better: "lower", Moves: "batch.checkpoint_s"},
	"store.recover_ms":            {Unit: "ms", Better: "lower", Moves: "batch.recover_s"},
	"store.feed_records_retained": {Unit: "count", Better: "lower", Moves: "heap_mb_end, batch.checkpoint_s → batch_durable"},

	// part, clock
	"part.inbox_wait_us":          {Unit: "us", Better: "lower", Moves: "effect_p50_us, effect_tail_us → webhook_open"},
	"part.do_roundtrip_us":        {Unit: "us", Better: "lower", Moves: "effect_p50_us → batch_durable"},
	"part.split_ns_per_happening": {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"part.postbatch_us":           {Unit: "us", Better: "lower", Moves: "effect_p50_us → batch_durable"},
	"part.skew":                   {Unit: "ratio", Better: "lower", Moves: "bounds per-partition gains → batch_durable"},
	"clock.arm_ns":                {Unit: "ns", Better: "lower", Moves: "setup_s → timer_storm"},
	"clock.advance_ns_per_due":    {Unit: "ns", Better: "lower", Moves: "happenings_per_s → timer_storm"},
	"clock.pending":               {Unit: "count", Better: "lower", Moves: "—"},

	// egress
	"egress.encode_ns":            {Unit: "ns", Better: "lower", Moves: "happenings_per_s → batch_durable"},
	"egress.decode_ns":            {Unit: "ns", Better: "lower", Moves: "batch.recover_s"},
	"egress.bytes_per_record":     {Unit: "B", Better: "lower", Moves: "store.wal_bytes_per_happening → batch_durable"},
	"egress.idem_key_ns":          {Unit: "ns", Better: "lower", Moves: "effect_p50_us → webhook_open"},
	"egress.cursor_save_us":       {Unit: "us", Better: "lower", Moves: "happenings_per_s, effect_tail_us → webhook_open; none elsewhere"},
	"egress.pump_ns_per_record":   {Unit: "ns", Better: "lower", Moves: "happenings_per_s → webhook_open"},
	"egress.http_send_us":         {Unit: "us", Better: "lower", Moves: "effect_p50_us → webhook_open"},
	"egress.publish_to_send_ms":   {Unit: "ms", Better: "lower", Moves: "effect_p50_us, effect_tail_us → webhook_open"},
	"egress.between_sends_us":     {Unit: "us", Better: "lower", Moves: "happenings_per_s → webhook_open"},
	"egress.lag_max":              {Unit: "count", Better: "lower", Moves: "backlog growth → webhook_open"},
	"egress.retries":              {Unit: "count", Better: "lower", Moves: "backlog growth → webhook_open"},
	"egress.gave_up":              {Unit: "count", Better: "lower", Moves: "backlog growth → webhook_open"},
	"egress.cursor_bytes":         {Unit: "B", Better: "lower", Moves: "backlog growth → webhook_open"},
	"egress.duplicate_deliveries": {Unit: "count", Better: "lower", Moves: "absorbed by the receiver's de-duplication"},

	// obs
	"obs.flight_record_ns":            {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"obs.prov_append_ns":              {Unit: "ns", Better: "lower", Moves: "happenings_per_s → single_masked"},
	"obs.snapshot_us":                 {Unit: "us", Better: "lower", Moves: "— (scrape cost)"},
	"obs.writeprom_us":                {Unit: "us", Better: "lower", Moves: "— (scrape cost)"},
	"obs.tracing_on_ns_per_happening": {Unit: "ns", Better: "lower", Moves: "standing observability-on cell, single_masked"},

	// the ladder, the generator and the harness itself
	"webhook.rate1.effect_p50_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate1.effect_p99_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate1.backlog_growth": {Unit: "count", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate2.effect_p50_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate2.effect_p99_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate2.backlog_growth": {Unit: "count", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate3.effect_p50_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate3.effect_p99_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate3.backlog_growth": {Unit: "count", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate4.effect_p50_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate4.effect_p99_ms":  {Unit: "ms", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"webhook.rate4.backlog_growth": {Unit: "count", Better: "lower", Moves: "derives webhook.max_rate_ok_per_s"},
	"gen.late_share":               {Unit: "ratio", Better: "lower", Moves: "validity of webhook_open"},
	"gen.self_late_share":          {Unit: "ratio", Better: "lower", Moves: "validity of webhook_open: late though the inbox was free"},
	"gen.max_lag_ms":               {Unit: "ms", Better: "lower", Moves: "validity of webhook_open"},
	"bench.trace_overhead_share":   {Unit: "ratio", Better: "lower", Moves: "validity of the traced run"},
	"bench.gc_cpu_share":           {Unit: "ratio", Better: "lower", Moves: "GC pressure → batch_durable"},
	"bench.gc_cycles":              {Unit: "count", Better: "lower", Moves: "GC pressure → batch_durable"},
	"bench.spans_dropped":          {Unit: "count", Better: "lower", Moves: "validity of the traced run"},
}

// endToEnd lists the bounded metrics in report order.
var endToEnd = []string{"setup_s", "happenings_per_s", "effect_p50_us", "allocs_per_happening", "heap_mb_end"}

// perLayer returns the names of the unbounded metrics, sorted.
func perLayer() []string {
	var out []string
	for name, d := range metricDefs {
		if d.Bound == 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
