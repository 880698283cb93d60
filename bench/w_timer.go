package main

import (
	"time"

	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

// timer_storm: one goroutine, closed loop, alternating
// Clock().Advance(one period) — which delivers the ten-minute tick to
// every armed sensor — with a reportsPerTick-entry PostBatch of report
// calls, on an unpartitioned volatile engine with 100 000 armed
// objects.
const (
	timerObjects   = 100_000
	timerPeriod    = 10 * time.Minute
	timerCronEvery = 64
	// timerTicksPerSec is the seed commit's closed-loop rate in
	// tick+report cycles per second (README.md, "Frozen constants").
	timerTicksPerSec = 7.5
	timerArmChunk    = 10_000
)

type timerStorm struct {
	nObj int
	perW int // cycles per window
	in   calls
	warm calls // the warm-up sweep: one report per sensor
	want *ledger
	last []int32 // model: each sensor's last reported value
	lat  []int64

	eng *engine.Engine
	got *ledger
	reg []float64
}

func (w *timerStorm) generate(cfg *config) string {
	w.nObj = cfg.scaled(timerObjects, 2*timerCronEvery)
	w.perW = cfg.perWindow(timerTicksPerSec, 2)
	cycles := w.perW * (windows + 1)
	w.in = genReports(cfg.seed, w.nObj, cycles)
	w.warm = genReports(cfg.seed+1, w.nObj, (w.nObj+reportsPerTick-1)/reportsPerTick)
	for i := range w.warm.obj {
		w.warm.obj[i] = uint32(i % w.nObj)
	}
	w.lat = make([]int64, w.perW)

	// The model: every tick fires Cron on each timerCronEvery-th
	// sensor; every report follows a tick, so it fires Heartbeat. The
	// run is one tick, the sweep, then the cycles.
	w.want = newLedger(w.nObj, 2)
	w.last = make([]int32, w.nObj)
	tick := func() {
		for obj := 0; obj < w.nObj; obj += timerCronEvery {
			w.want.fire(obj, sCron)
		}
	}
	report := func(in *calls, lo, hi int) {
		for e := lo; e < hi; e++ {
			w.want.fire(int(in.obj[e]), sHeartbeat)
			w.last[in.obj[e]] = in.amount[e]
		}
	}
	tick()
	report(&w.warm, 0, w.warm.len())
	for c := 0; c < cycles; c++ {
		tick()
		report(&w.in, c*reportsPerTick, (c+1)*reportsPerTick)
	}
	return digestOf(&w.warm, &w.in)
}

func (w *timerStorm) setup() error {
	eng, err := engine.New(engine.Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		return err
	}
	w.eng = eng
	w.got = newLedger(w.nObj, 2)
	got := w.got
	cls, impl := sensorClass(func(oid store.OID, slot int) { got.fire(int(oid)-1, slot) })
	ms, err := timedRegister(eng, cls, impl)
	if err != nil {
		return err
	}
	w.reg = append(w.reg, ms)
	for lo := 0; lo < w.nObj; lo += timerArmChunk {
		err := eng.Transact(func(tx *engine.Tx) error {
			for i := lo; i < lo+timerArmChunk && i < w.nObj; i++ {
				oid, err := tx.NewObject("sensor", nil)
				if err != nil {
					return err
				}
				if err := tx.Activate(oid, "Heartbeat"); err != nil {
					return err
				}
				if i%timerCronEvery == 0 {
					if err := tx.Activate(oid, "Cron"); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *timerStorm) teardown() {
	w.eng.Close()
	w.eng, w.got = nil, nil
}

func (w *timerStorm) measure(res *result, tr *tracer) {
	// Too few cycles in a run for a p99: the tail is p90.
	ws := &windowSet{happenings: w.perW * (w.nObj + reportsPerTick), tailQ: 0.90}
	b := engine.NewBatch("sensor", reportsPerTick)
	post := func(in *calls, c int) error {
		b.Reset()
		for e := c * reportsPerTick; e < (c+1)*reportsPerTick; e++ {
			b.Call(store.OID(in.obj[e])+1, "report", value.Int(int64(in.amount[e])))
		}
		return w.eng.Transact(func(tx *engine.Tx) error { return tx.PostBatch(b) })
	}
	// Warm-up, before window 0's cycles: one tick, then a report to
	// every sensor. A sensor's first report allocates its provenance
	// ring, and uniform picks would leave a quarter of the fleet
	// without one — and the heap growing — at the end of the run.
	w.eng.Clock().Advance(timerPeriod)
	for c := 0; c < w.warm.len()/reportsPerTick; c++ {
		if err := post(&w.warm, c); err != nil {
			res.fail(1, "warm-up sweep: %v", err)
		}
	}
	var postsPerTick []float64
	for win := 0; win <= windows; win++ {
		traced, root := openWindow(tr, win)
		m := startMeter(w.eng.Stats())
		for i := 0; i < w.perW; i++ {
			c := win*w.perW + i
			t0 := nowNs()
			var parent int32
			if traced {
				parent = tr.begin(spTx, root, uint32(c))
				ref := tr.begin(spAdvance, parent, uint32(c))
				w.eng.Clock().Advance(timerPeriod)
				tr.finish(ref)
			} else {
				w.eng.Clock().Advance(timerPeriod)
			}
			var ref int32
			if traced {
				ref = tr.begin(spPostBatch, parent, uint32(c))
			}
			err := post(&w.in, c)
			tr.finish(ref)
			tr.finish(parent)
			w.lat[i] = nowNs() - t0
			if err != nil {
				res.fail(1, "cycle %d: %v", c, err)
			}
		}
		d := m.stop(w.eng.Stats())
		tr.finish(root)
		if win == 0 {
			continue // warm-up
		}
		res.Attempted += int64(w.perW)
		ws.add(d, w.lat, traced)
		postsPerTick = append(postsPerTick, float64(d.stats.TimerPosts)/float64(w.perW))
		if want := uint64(w.nObj) * uint64(w.perW); d.stats.TimerPosts != want {
			res.fail(1, "window %d delivered %d timer posts, the ledger says %d", win, d.stats.TimerPosts, want)
		}
	}
	ws.report(res)
	st := w.eng.Stats()
	res.putv("engine.timer_posts_per_tick", postsPerTick...)
	res.putv("engine.timer_cohorts", float64(st.TimerCohorts))
	res.putv("clock.pending", float64(st.TimersPending))
	res.putv("engine.register_class_ms", w.reg...)
	res.putv("mask.reject_ratio", rejectRatio(w.eng.Metrics().Snapshot()))
	res.putv("fa.table_bytes", float64(st.AutomatonTableBytes))
	res.putv("compile.cache_hit_ratio", hitRatio(st))
	if tr != nil {
		putSpan(res, tr, "engine.timer_tick_us", spAdvance, 1e3)
		putSpan(res, tr, "engine.postbatch_ns_per_happening", spPostBatch, reportsPerTick)
	}

	for _, err := range w.eng.TimerErrors() {
		res.fail(1, "timer delivery: %v", err)
	}
	if bad, first := w.got.diff(w.want); bad > 0 {
		res.fail(int64(bad), "%d sensors fired differently from the model; first: %s", bad, first)
	}
	bad := 0
	for obj, want := range w.last {
		rec, err := w.eng.Store().Get(store.OID(obj) + 1)
		if err != nil || rec.Fields["v"].AsInt() != int64(want) {
			bad++
		}
	}
	if bad > 0 {
		res.fail(int64(bad), "%d sensors hold a value other than their last report", bad)
	}
}
