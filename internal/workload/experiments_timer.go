package workload

import (
	"fmt"
	"time"

	"ode/internal/engine"
	"ode/internal/part"
	"ode/internal/schema"
	"ode/internal/value"
)

// E18 measures timer-storm delivery: an IoT-fleet-shaped class where
// every object arms the same canonical periodic heartbeat, and the
// virtual clock then sweeps whole periods at once. The engine tracks
// all members of one (class, spec, phase) in a single timing-wheel
// entry and delivers a due cohort in one system transaction per
// (class, tick), its counts metered once per tick (the pre-cohort
// per-object layout it replaced is the reference of the engine's
// TestTimerCohortEquivalence; bench/'s timer_storm is the maintained
// measurement). The heartbeat spec is monitoring-shaped: `relative(every time(M=10),
// after report)` steps the automaton on every tick but fires only
// when a report follows, so the sweep measures detection (the masked
// non-firing path cohorts amortize), not the firing pipeline; a Cron
// trigger on every 64th object fires each tick to keep the firing and
// metrics planes non-vacuous.

// e18Period is the heartbeat period; every timed tick advances the
// clock by exactly one period, delivering each armed heartbeat once.
const e18Period = 10 * time.Minute

// e18CronEvery is the fraction of objects that also arm the
// always-firing Cron trigger (1 in e18CronEvery).
const e18CronEvery = 64

// E18Row is one timer-storm measurement.
type E18Row struct {
	Partitions int `json:"partitions"`
	// Objects is the number of armed `every` heartbeats (one per object).
	Objects int    `json:"objects"`
	Ticks   int    `json:"ticks"`
	Posts   uint64 `json:"timer_posts"`
	Firings uint64 `json:"firings"`
	// PostsPerSec is aggregate timer-delivery throughput: timer
	// happenings delivered per wall-clock second during the sweep.
	PostsPerSec float64 `json:"posts_per_sec"`
	// Speedup is relative to the one-engine row with the same object
	// count.
	Speedup float64 `json:"speedup_vs_one_engine"`
}

// RunE18 sweeps the storm over object counts: for each N it measures
// cohort delivery on one engine and on each partition count in parts
// (objects split evenly, clocks advanced concurrently). Each cell is the
// best of two repetitions, as in E12/E16/E17. Every cell checks the
// delivery ledger — posts must equal objects × ticks exactly — and
// reconciles the per-trigger metrics against the aggregate counters.
func RunE18(objects []int, ticks int, parts []int) ([]E18Row, error) {
	var rows []E18Row
	for _, n := range objects {
		var base float64
		for _, p := range append([]int{1}, parts...) {
			var row E18Row
			for rep := 0; rep < 2; rep++ {
				r, err := runE18(n, ticks, p)
				if err != nil {
					return nil, fmt.Errorf("workload: E18 P=%d N=%d: %w", p, n, err)
				}
				if rep == 0 || r.PostsPerSec > row.PostsPerSec {
					row = r
				}
			}
			if p == 1 {
				base = row.PostsPerSec
			}
			row.Speedup = row.PostsPerSec / base
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// sensorClass is the E18 fleet class.
func sensorClass() (*schema.Class, engine.ClassImpl) {
	cls := &schema.Class{
		Name:   "sensor",
		Fields: []schema.Field{{Name: "v", Kind: value.KindInt, Default: value.Int(0)}},
		Methods: []schema.Method{
			{Name: "report", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "Heartbeat", Perpetual: true, Event: "relative(every time(M=10), after report)"},
			{Name: "Cron", Perpetual: true, Event: "every time(M=10)"},
		},
	}
	impl := engine.ClassImpl{
		Methods: map[string]engine.MethodImpl{
			"report": func(ctx *engine.MethodCtx) (value.Value, error) {
				return value.Null(), ctx.Set("v", ctx.Arg("n"))
			},
		},
		Actions: map[string]engine.ActionFunc{
			"Heartbeat": func(*engine.ActionCtx) error { return nil },
			"Cron":      func(*engine.ActionCtx) error { return nil },
		},
	}
	return cls, impl
}

// e18Arm creates n sensors in tx and arms Heartbeat on each, Cron on
// every 64th.
func e18Arm(tx *engine.Tx, n int) error {
	for i := 0; i < n; i++ {
		oid, err := tx.NewObject("sensor", nil)
		if err != nil {
			return err
		}
		if err := tx.Activate(oid, "Heartbeat"); err != nil {
			return err
		}
		if i%e18CronEvery == 0 {
			if err := tx.Activate(oid, "Cron"); err != nil {
				return err
			}
		}
	}
	return nil
}

// e18Check verifies the delivery ledger for one cell: exactly
// objects × ticks timer posts during the sweep, no timer errors, and
// the per-trigger metrics reconciled against the aggregate firings.
func e18Check(posts uint64, n, ticks int, timerErrs []error) error {
	if len(timerErrs) != 0 {
		return fmt.Errorf("timer errors: %v", timerErrs)
	}
	if want := uint64(n) * uint64(ticks); posts != want {
		return fmt.Errorf("delivery ledger broken: %d timer posts, want %d (objects %d × ticks %d)",
			posts, want, n, ticks)
	}
	return nil
}

// runE18 measures one cell: one engine for p = 1, a partitioned DB
// otherwise.
func runE18(n, ticks, p int) (E18Row, error) {
	if p > 1 {
		return runE18Part(n, ticks, p)
	}
	eng, err := engine.New(engine.Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		return E18Row{}, err
	}
	defer eng.Close()
	cls, impl := sensorClass()
	if _, err := eng.RegisterClass(cls, impl, nil); err != nil {
		return E18Row{}, err
	}
	if err := eng.Transact(func(tx *engine.Tx) error { return e18Arm(tx, n) }); err != nil {
		return E18Row{}, err
	}
	// Warm one untimed tick: first-delivery allocations (cohort scratch,
	// batch phases, metric series) land here, as in E11/E17 warmups.
	eng.Clock().Advance(e18Period)
	before := eng.Stats()

	start := time.Now()
	for t := 0; t < ticks; t++ {
		eng.Clock().Advance(e18Period)
	}
	elapsed := time.Since(start)

	stats := eng.Stats()
	posts := stats.TimerPosts - before.TimerPosts
	if err := e18Check(posts, n, ticks, eng.TimerErrors()); err != nil {
		return E18Row{}, err
	}
	if err := e17Reconcile(eng.Metrics().Snapshot().Triggers, stats.Firings); err != nil {
		return E18Row{}, err
	}
	return E18Row{
		Partitions: 1, Objects: n, Ticks: ticks,
		Posts: posts, Firings: stats.Firings - before.Firings,
		PostsPerSec: float64(posts) / elapsed.Seconds(),
	}, nil
}

// runE18Part measures cohort delivery on a partitioned DB: objects
// split evenly across p single-writer partitions, clocks advanced
// concurrently so due cohorts deliver in parallel.
func runE18Part(n, ticks, p int) (E18Row, error) {
	db, err := part.Open(part.Options{
		N:      p,
		Engine: engine.Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)},
	})
	if err != nil {
		return E18Row{}, err
	}
	defer db.Close()
	cls, impl := sensorClass()
	err = db.Register(func(_ int, e *engine.Engine) error {
		_, rerr := e.RegisterClass(cls, impl, nil)
		return rerr
	})
	if err != nil {
		return E18Row{}, err
	}
	per := n / p
	for q := 0; q < p; q++ {
		m := per
		if q == p-1 {
			m = n - per*(p-1)
		}
		if err := db.Transact(q, func(tx *engine.Tx) error { return e18Arm(tx, m) }); err != nil {
			return E18Row{}, err
		}
	}
	if err := db.AdvanceConcurrent(e18Period); err != nil { // warm tick
		return E18Row{}, err
	}
	before := db.Stats()

	start := time.Now()
	for t := 0; t < ticks; t++ {
		if err := db.AdvanceConcurrent(e18Period); err != nil {
			return E18Row{}, err
		}
	}
	elapsed := time.Since(start)

	stats := db.Stats()
	var timerErrs []error
	for q := 0; q < p; q++ {
		timerErrs = append(timerErrs, db.Partition(q).Engine().TimerErrors()...)
	}
	posts := stats.TimerPosts - before.TimerPosts
	if err := e18Check(posts, n, ticks, timerErrs); err != nil {
		return E18Row{}, err
	}
	if err := e17Reconcile(db.Metrics().Triggers, stats.Firings); err != nil {
		return E18Row{}, err
	}
	return E18Row{
		Partitions: p, Objects: n, Ticks: ticks,
		Posts: posts, Firings: stats.Firings - before.Firings,
		PostsPerSec: float64(posts) / elapsed.Seconds(),
	}, nil
}

// TimersArmedCheck returns the aggregate armed-cohort view for a
// fleet of n sensors on one engine — used by the E18 test to pin the
// §3.1 sharing structure the storm relies on (all heartbeats in one
// cohort, one pending wheel entry per distinct phase).
func TimersArmedCheck(n int) (cohorts, pending uint64, err error) {
	eng, err := engine.New(engine.Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	cls, impl := sensorClass()
	if _, err := eng.RegisterClass(cls, impl, nil); err != nil {
		return 0, 0, err
	}
	if err := eng.Transact(func(tx *engine.Tx) error { return e18Arm(tx, n) }); err != nil {
		return 0, 0, err
	}
	s := eng.Stats()
	return s.TimerCohorts, s.TimersPending, nil
}
