package main

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"ode/internal/clock"
	"ode/internal/compile"
	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/evlang"
	"ode/internal/mask"
	"ode/internal/obs"
	"ode/internal/part"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// Replay cells: each drives one layer's public function alone, over
// inputs generated from the run's seed, and reports the median of
// replayReps timed repetitions. They run after the traced workload and
// touch nothing it measured.
const (
	replayReps    = 5
	replaySyncOps = 40 // operations per repetition of the cells that fsync
)

// replay carries the cells' sizes — operations per repetition of the
// cheap cells, and the object counts of the cells that mirror a
// workload's size — shrunk by the run's scale.
type replay struct {
	cfg                  *config
	res                  *result
	ops, objects, timers int
}

// once times fn, which performs ops operations, in ns per operation.
func once(ops int, fn func()) float64 {
	t0 := nowNs()
	fn()
	return float64(nowNs()-t0) / float64(ops)
}

// cell is replayReps repetitions of once.
func cell(ops int, fn func()) []float64 {
	out := make([]float64, replayReps)
	for r := range out {
		out[r] = once(ops, fn)
	}
	return out
}

func scaleBy(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] / by
	}
	return out
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink uint64

func replayCells(cfg *config, res *result) {
	rp := &replay{cfg: cfg, res: res, ops: cfg.scaled(20_000, 200),
		objects: cfg.scaled(batchObjects, batchLen), timers: cfg.scaled(timerObjects, 200)}
	r := &rng{s: cfg.seed ^ 0x5eed}
	amounts := make([][]value.Value, rp.ops)
	for i := range amounts {
		amounts[i] = []value.Value{value.Int(int64(1 + r.intn(1000)))}
	}
	cls, _ := accountClass(maskedTriggers(), func(store.OID, int) {})
	replayLanguage(res, cls)
	replayMask(res, amounts)
	rp.automata(cls, r)
	rp.callSlope()
	rp.txnAndStore()
	rp.obs()
	rp.clock()
	rp.egressCodec()
	replayPart(res)
	if err := rp.durable(); err != nil {
		res.fail(1, "replay cells: %v", err)
	}
}

// replayLanguage: evlang parse + resolve, and compile from a cold
// automaton cache, per trigger of the eight-trigger class.
func replayLanguage(res *result, cls *schema.Class) {
	n := float64(len(cls.Triggers))
	var cr *evlang.ClassResolution
	res.putv("evlang.parse_us_per_trigger", scaleBy(cell(1, func() {
		cr, _ = evlang.ResolveClass(cls, evlang.ForClass(cls))
	}), n*1e3)...)
	res.putv("compile.compile_us_per_trigger", scaleBy(cell(1, func() {
		compile.ResetAutomatonCache()
		for _, t := range cr.Triggers {
			sink += uint64(compile.CompileShared(t.Expr, cr.Alphabet.NumSymbols).Start())
		}
	}), n*1e3)...)
}

// paramResolver resolves the mask variable n to event parameter 0.
type paramResolver struct{}

func (paramResolver) ResolveVar(name string) (mask.Slot, bool) {
	return mask.Slot{Kind: mask.SlotEventParam, Index: 0, Name: name}, name == "n"
}

func replayMask(res *result, amounts [][]value.Value) {
	expr := mask.MustParse("n > 900")
	var prog *mask.Program
	res.putv("mask.compile_us", scaleBy(cell(100, func() {
		for i := 0; i < 100; i++ {
			prog, _ = mask.CompileExpr(expr, paramResolver{})
		}
	}), 1e3)...)
	res.putv("mask.eval_ns", cell(len(amounts), func() {
		for _, ev := range amounts {
			if ok, _ := prog.EvalBool(ev, nil, nil); ok {
				sink++
			}
		}
	})...)
	progs := []*mask.Program{prog}
	res.putv("mask.evalbits_ns", cell(len(amounts), func() {
		for _, ev := range amounts {
			bits, _, _, _ := mask.EvalBits(progs, 1, ev, nil, nil)
			sink += uint64(bits)
		}
	})...)
}

// replayAutomata steps each trigger's compact table over a generated
// symbol stream.
func (rp *replay) automata(cls *schema.Class, r *rng) {
	res := rp.res
	cr, err := evlang.ResolveClass(cls, evlang.ForClass(cls))
	if err != nil {
		res.fail(1, "replay: resolve: %v", err)
		return
	}
	var states float64
	var step []float64
	for _, t := range cr.Triggers {
		tab := compile.CompileShared(t.Expr, cr.Alphabet.NumSymbols).Tab.Compact
		states += float64(tab.NumStates())
		stream := make([]int, rp.ops)
		for i := range stream {
			stream[i] = r.intn(tab.NumSymbols())
		}
		step = append(step, cell(len(stream), func() {
			s := tab.Start()
			for _, a := range stream {
				s = tab.Next(s, a)
			}
			sink += uint64(s)
		})...)
	}
	res.putv("fa.step_ns", step...)
	res.putv("fa.states_total", states)
}

// replayCallSlope is engine.call_ns_per_trigger: Tx.Call on objects
// with 0, 1, 2, 4 and 8 of the eight triggers active; the slope of ns
// per call over the active count.
func (rp *replay) callSlope() {
	cfg, res := rp.cfg, rp.res
	objects, txs := cfg.scaled(1000, 16), cfg.scaled(1000, 50)
	in, _ := genMasked(cfg.seed, objects, txs, 1<<30)
	var xs, ys []float64
	for _, active := range []int{0, 1, 2, 4, 8} {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			res.fail(1, "replay: engine: %v", err)
			return
		}
		cls, impl := accountClass(maskedTriggers(), func(store.OID, int) {})
		if _, err = eng.RegisterClass(cls, impl, nil); err == nil {
			err = createAccounts(objects, 1, cls.Triggers[:active], func(_ int, fn func(*engine.Tx) error) error { return eng.Transact(fn) })
		}
		if err != nil {
			res.fail(1, "replay: call slope set-up: %v", err)
			eng.Close()
			return
		}
		samples := cell(in.len(), func() {
			for t := 0; t < txs; t++ {
				tx := eng.Begin()
				for k := t * txCalls; k < (t+1)*txCalls; k++ {
					tx.Call(store.OID(in.obj[k])+1, methodNames[in.method[k]], value.Int(int64(in.amount[k])))
				}
				tx.Commit()
			}
		})
		xs = append(xs, float64(active))
		ys = append(ys, summarize("", samples...).Value)
		if active == len(cls.Triggers) {
			snap := eng.Metrics().Snapshot()
			res.putv("obs.snapshot_us", scaleBy(cell(1, func() { snap = eng.Metrics().Snapshot() }), 1e3)...)
			res.putv("obs.writeprom_us", scaleBy(cell(1, func() { obs.WriteProm(io.Discard, snap, nil) }), 1e3)...)
		}
		eng.Close()
	}
	res.putv("engine.call_ns_per_trigger", slope(xs, ys))
}

func (rp *replay) txnAndStore() {
	res, replayOps := rp.res, rp.ops
	st, _ := store.Open("")
	defer st.Close()
	const objects = 1000
	oids := make([]store.OID, objects)
	for i := range oids {
		oids[i] = st.Create("account", map[string]value.Value{"balance": value.Int(0)}).OID
	}
	for _, single := range []bool{false, true} {
		m := txn.NewManager(st)
		m.SetSingleWriter(single)
		name := "txn.begin_commit_ns"
		if single {
			name = "txn.begin_commit_single_ns"
		}
		res.putv(name, cell(replayOps, func() {
			for i := 0; i < replayOps; i++ {
				m.Begin().Commit()
			}
		})...)
	}
	m := txn.NewManager(st)
	var first, again []float64
	for rep := 0; rep < replayReps; rep++ {
		tx := m.Begin()
		access := func() {
			for _, oid := range oids {
				tx.Access(oid)
			}
		}
		first = append(first, once(objects, access))
		again = append(again, once(objects, access))
		tx.Abort()
	}
	res.putv("txn.access_first_ns", first...)
	res.putv("txn.access_again_ns", again...)

	big, _ := store.Open("")
	defer big.Close()
	all := make([]store.OID, rp.objects)
	for i := range all {
		all[i] = big.Create("account", nil).OID
	}
	res.putv("store.get_ns", cell(len(all), func() {
		for _, oid := range all {
			if rec, err := big.Get(oid); err == nil {
				sink += uint64(rec.OID)
			}
		}
	})...)
	dirty := all[:batchLen]
	res.putv("store.publish_ns_per_oid", cell(len(dirty), func() { big.PublishCommitted(dirty, nil) })...)
}

func (rp *replay) obs() {
	res, replayOps := rp.res, rp.ops
	names := obs.NewInterner()
	fl := obs.NewFlight(0, names)
	id := names.Intern("account")
	res.putv("obs.flight_record_ns", cell(replayOps, func() {
		for i := 0; i < replayOps; i++ {
			fl.Record(obs.StageHappening, int64(i), 1, uint64(i), id, id, id, 0, 1, true, 0)
		}
	})...)
	ring := obs.NewProvRing(obs.DefaultProvDepth)
	res.putv("obs.prov_append_ns", cell(replayOps, func() {
		for i := 0; i < replayOps; i++ {
			ring.Append(obs.ProvStep{TxID: 1, AtNs: int64(i), KindID: id, Sym: i & 7, From: 0, To: 1})
		}
	})...)
}

// replayClock arms timer_storm's number of no-op periodic timers, then
// advances one period so each comes due once.
func (rp *replay) clock() {
	res, replayTimers := rp.res, rp.timers
	var arm, due []float64
	for rep := 0; rep < replayReps; rep++ {
		clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		arm = append(arm, once(replayTimers, func() {
			for i := 0; i < replayTimers; i++ {
				clk.Every(timerPeriod, func(time.Time) {})
			}
		}))
		due = append(due, once(replayTimers, func() { clk.Advance(timerPeriod) }))
	}
	res.putv("clock.arm_ns", arm...)
	res.putv("clock.advance_ns_per_due", due...)
}

func (rp *replay) egressCodec() {
	res := rp.res
	recs := make([]store.FiringRecord, rp.ops)
	for i := range recs {
		recs[i] = store.FiringRecord{Seq: uint64(i + 1), TxID: uint64(i), OID: store.OID(i%rp.objects + 1), Part: i & 1,
			Class: "account", Trigger: "Big", Kind: "after deposit", AtNs: int64(i)}
	}
	var buf []byte
	res.putv("egress.encode_ns", cell(len(recs), func() {
		buf = buf[:0]
		for _, rec := range recs {
			buf = egress.AppendRecord(buf, rec)
		}
	})...)
	res.putv("egress.bytes_per_record", float64(len(buf))/float64(len(recs)))
	res.putv("egress.decode_ns", cell(len(recs), func() {
		for b := buf; len(b) > 0; {
			rec, n, err := egress.DecodeRecord(b)
			if err != nil {
				break
			}
			sink += rec.Seq
			b = b[n:]
		}
	})...)
	res.putv("egress.idem_key_ns", cell(len(recs), func() {
		for _, rec := range recs {
			sink += uint64(len(egress.KeyFor(rec)))
		}
	})...)
}

func replayPart(res *result) {
	db, err := part.Open(part.Options{N: batchPartitions})
	if err != nil {
		res.fail(1, "replay: part: %v", err)
		return
	}
	defer db.Close()
	const ops = 2000
	res.putv("part.do_roundtrip_us", scaleBy(cell(ops, func() {
		for i := 0; i < ops; i++ {
			db.Do(i&1, func(*engine.Engine) error { return nil })
		}
	}), 1e3)...)
}

// replayDurable holds the cells that write files: LogCommit on a
// durable store, durable Cursor.Save, and Pump over a committed feed.
func (rp *replay) durable() error {
	cfg, res, replayOps := rp.cfg, rp.res, rp.ops
	dir, err := cfg.tempDir("replay-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer st.Close()
	oids := make([]store.OID, batchLen)
	for i := range oids {
		oids[i] = st.Create("account", map[string]value.Value{"balance": value.Int(int64(i))}).OID
	}
	firings := func(n int) []store.FiringRecord {
		out := make([]store.FiringRecord, n)
		for i := range out {
			out[i] = store.FiringRecord{OID: oids[i], Class: "account", Trigger: "Big", Kind: "after deposit"}
		}
		return out
	}
	txid := uint64(0)
	for _, shape := range []struct {
		name           string
		dirty, firings int
	}{
		{"store.logcommit_1_0_us", 1, 0}, {"store.logcommit_1_1_us", 1, 1}, {"store.logcommit_256_26_us", batchLen, 26},
	} {
		var cerr error
		res.putv(shape.name, scaleBy(cell(replaySyncOps, func() {
			for i := 0; i < replaySyncOps; i++ {
				txid++
				if err := st.LogCommit(txid, oids[:shape.dirty], nil, firings(shape.firings)); err != nil {
					cerr = err
				}
			}
		}), 1e3)...)
		if cerr != nil {
			return cerr
		}
	}

	cur, err := egress.OpenCursor(filepath.Join(dir, "cursor"), nil)
	if err != nil {
		return err
	}
	defer cur.Close()
	seq := uint64(0)
	var serr error
	res.putv("egress.cursor_save_us", scaleBy(cell(replaySyncOps, func() {
		for i := 0; i < replaySyncOps; i++ {
			seq++
			if err := cur.Save(store.FiringRecord{Seq: seq, OID: 1, Class: "account", Trigger: "Big"}); err != nil {
				serr = err
			}
		}
	}), 1e3)...)
	if serr != nil {
		return serr
	}

	// Pump: a volatile engine whose every deposit fires, replayOps
	// firings committed 100 to a transaction, drained through a no-op
	// sender with an in-memory cursor.
	var pump []float64
	for rep := 0; rep < replayReps; rep++ {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			return err
		}
		cls, impl := accountClass([]schema.Trigger{{Name: "Any", Perpetual: true, Event: "after deposit(n) && n >= 0"}}, func(store.OID, int) {})
		if _, err = eng.RegisterClass(cls, impl, nil); err == nil {
			err = createAccounts(1, 1, cls.Triggers, func(_ int, fn func(*engine.Tx) error) error { return eng.Transact(fn) })
		}
		for done := 0; err == nil && done < replayOps; done += 100 {
			err = eng.Transact(func(tx *engine.Tx) error {
				for i := 0; i < 100; i++ {
					if _, err := tx.Call(1, "deposit", value.Int(1)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			eng.Close()
			return err
		}
		d := egress.NewDeliverer(eng, egress.SenderFunc(func(store.FiringRecord, string) error { return nil }), egress.DelivererOptions{})
		t0 := nowNs()
		n, err := d.Pump(0)
		pump = append(pump, float64(nowNs()-t0)/float64(replayOps))
		eng.Close()
		if err != nil || n != replayOps {
			res.fail(1, "replay: pump drained %d of %d records: %v", n, replayOps, err)
		}
	}
	res.putv("egress.pump_ns_per_record", pump...)
	return nil
}
