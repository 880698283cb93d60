package main

import (
	"ode/internal/engine"
	"ode/internal/store"
	"ode/internal/value"
)

// single_masked: one producer, closed loop, transactions of txCalls
// single Tx.Calls against an unpartitioned volatile engine; eight
// perpetual triggers on every object; masks reject ≥ 99.9 %.
const (
	singleObjects = 10_000
	// singleTxPerSec is the seed commit's closed-loop rate (README.md,
	// "Frozen constants"); it fixes the window size, not the run's speed.
	singleTxPerSec = 13_500
	// singleSampleEvery-th transaction of a traced window is timed
	// call by call.
	singleSampleEvery = 16
)

type singleMasked struct {
	plantEvery int // test hook: plant rare amounts this often instead of plantEvery

	nObj  int
	perW  int // transactions per window
	in    calls
	want  *model
	lat   []int64
	eng   *engine.Engine
	got   *ledger
	regMs []float64
}

func (w *singleMasked) generate(cfg *config) string {
	w.nObj = cfg.scaled(singleObjects, 16)
	w.perW = cfg.perWindow(singleTxPerSec, 64)
	if w.plantEvery == 0 {
		w.plantEvery = plantEvery
	}
	w.in, w.want = genMasked(cfg.seed, w.nObj, w.perW*(windows+1), w.plantEvery)
	w.lat = make([]int64, w.perW)
	return digestOf(&w.in)
}

func (w *singleMasked) setup() error {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return err
	}
	w.eng = eng
	w.got = newLedger(w.nObj, len(maskedTriggers()))
	got := w.got
	cls, impl := accountClass(maskedTriggers(), func(oid store.OID, slot int) { got.fire(int(oid)-1, slot) })
	ms, err := timedRegister(eng, cls, impl)
	if err != nil {
		return err
	}
	w.regMs = append(w.regMs, ms)
	return createAccounts(w.nObj, 1, cls.Triggers, func(_ int, fn func(*engine.Tx) error) error { return eng.Transact(fn) })
}

func (w *singleMasked) teardown() {
	w.eng.Close()
	w.eng, w.got = nil, nil
}

func (w *singleMasked) measure(res *result, tr *tracer) {
	ws := &windowSet{happenings: w.perW * txCalls, tailQ: 0.99}
	var callFirst, callLast []int64
	for win := 0; win <= windows; win++ {
		traced, root := openWindow(tr, win)
		spansBefore := 0
		if tr != nil {
			spansBefore = len(tr.recorded())
		}
		m := startMeter(w.eng.Stats())
		for i := 0; i < w.perW; i++ {
			t := win*w.perW + i
			var err error
			if traced && i%singleSampleEvery == 0 {
				err = w.txTraced(tr, root, t)
			} else {
				err = w.tx(t, i)
			}
			if err != nil {
				res.fail(1, "transaction %d: %v", t, err)
			}
		}
		d := m.stop(w.eng.Stats())
		tr.finish(root)
		if win == 0 {
			continue // warm-up
		}
		res.Attempted += int64(w.perW)
		ws.add(d, w.lat, traced)
		if traced {
			calls := spanDurations(tr.recorded()[spansBefore:], spCall)
			if callFirst == nil {
				callFirst = calls
			}
			callLast = calls
		}
	}
	ws.report(res)
	res.putv("mask.reject_ratio", rejectRatio(w.eng.Metrics().Snapshot()))
	res.putv("engine.register_class_ms", w.regMs...)
	st := w.eng.Stats()
	res.putv("fa.table_bytes", float64(st.AutomatonTableBytes))
	res.putv("compile.cache_hit_ratio", hitRatio(st))
	if tr != nil {
		putSpan(res, tr, "engine.begin_ns", spBegin, 1)
		putSpan(res, tr, "engine.call_ns", spCall, 1)
		putSpan(res, tr, "engine.call_firing_ns", spCallFiring, 1)
		putSpan(res, tr, "engine.commit_ns", spCommit, 1)
		if len(callFirst) > 0 && len(callLast) > 0 {
			first := quantile(sortedCopy(callFirst), 0.5)
			res.putv("engine.drift_ratio", quantile(sortedCopy(callLast), 0.5)/first)
		}
	}
	checkAccounts(res, w.got, w.want, func(obj int) (*store.Record, error) { return w.eng.Store().Get(store.OID(obj) + 1) })
	if tr != nil {
		w.tracingCell(res) // replays inputs, so only after the check
	}
}

// tx runs generated transaction t untimed inside, timed outside.
func (w *singleMasked) tx(t, slot int) error {
	t0 := nowNs()
	tx := w.eng.Begin()
	for k := t * txCalls; k < (t+1)*txCalls; k++ {
		if _, err := tx.Call(store.OID(w.in.obj[k])+1, methodNames[w.in.method[k]], value.Int(int64(w.in.amount[k]))); err != nil {
			tx.Abort()
			return err
		}
	}
	err := tx.Commit()
	w.lat[slot] = nowNs() - t0
	return err
}

// txTraced is tx with a span around each call into the engine.
func (w *singleMasked) txTraced(tr *tracer, root int32, t int) error {
	req := uint32(t)
	t0 := tr.now()
	parent := tr.record(spTx, root, req, t0, 0)
	tx := w.eng.Begin()
	t1 := tr.now()
	tr.record(spBegin, parent, req, t0, t1)
	for k := t * txCalls; k < (t+1)*txCalls; k++ {
		_, err := tx.Call(store.OID(w.in.obj[k])+1, methodNames[w.in.method[k]], value.Int(int64(w.in.amount[k])))
		t2 := tr.now()
		name := spCall
		if w.in.amount[k] > rareOver {
			name = spCallFiring
		}
		tr.record(name, parent, req, t1, t2)
		t1 = t2
		if err != nil {
			tx.Abort()
			tr.finish(parent)
			return err
		}
	}
	err := tx.Commit()
	t3 := tr.now()
	tr.record(spCommit, parent, req, t1, t3)
	tr.spans[parent-1].End = t3
	w.lat[t%w.perW] = t3 - t0
	return err
}

// tracingCell is obs.tracing_on_ns_per_happening: a quarter window of
// transactions with the engine's own pipeline tracing on, minus the
// same transactions with it off.
func (w *singleMasked) tracingCell(res *result) {
	n := w.perW / 4
	run := func() float64 {
		t0 := nowNs()
		for i := 0; i < n; i++ {
			if err := w.tx(i, i); err != nil {
				res.fail(1, "tracing cell: %v", err)
			}
		}
		return float64(nowNs()-t0) / float64(n*txCalls)
	}
	off := run()
	w.eng.EnableTracing(-1)
	on := run()
	w.eng.DisableTracing()
	res.putv("obs.tracing_on_ns_per_happening", on-off)
}
