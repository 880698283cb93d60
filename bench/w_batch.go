package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ode/internal/engine"
	"ode/internal/part"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// batch_durable: two producers, closed loop, each filling a
// batchLen-entry engine.Batch and calling part.DB.PostBatch on a
// durable two-partition database (WAL and firing capture on, group
// commit as the store defaults); 100 000 objects; masks accept ≈ 10 %.
// After the windows: Checkpoint, Close, reopen.
const (
	batchObjects    = 100_000
	batchPartitions = 2
	batchProducers  = 2
	// batchPerSecPerProducer is the seed commit's closed-loop rate in
	// batches per second per producer (README.md, "Frozen constants").
	batchPerSecPerProducer = 75
	batchSampleEvery       = 8
	// batchWarmWindows untimed windows follow the warm-up sweep: the
	// heap's footprint (twice the 1.2 GB live) takes two collector
	// cycles to settle, and until it has, every window is faster than
	// the one before.
	batchWarmWindows     = 2
	recoverSampleObjects = 1000
)

type batchDurable struct {
	cfg  *config
	nObj int
	perW int // batches per producer per window
	warm int // batches per producer in the warm-up sweep
	in   []calls
	want *model
	lat  [][]int64 // per producer

	dir   string
	db    *part.DB
	got   *ledger
	regMs []float64
}

func (w *batchDurable) generate(cfg *config) string {
	w.cfg = cfg
	w.nObj = cfg.scaled(batchObjects, 4*batchProducers*4)
	w.nObj -= w.nObj % (2 * batchProducers)
	w.perW = cfg.perWindow(batchPerSecPerProducer, 4)
	w.in, w.warm, w.want = genBatches(cfg.seed, w.nObj, batchProducers, w.perW*(batchWarmWindows+windows))
	w.lat = make([][]int64, batchProducers)
	for k := range w.lat {
		w.lat[k] = make([]int64, w.perW)
	}
	return digestOf(&w.in[0], &w.in[1])
}

// openAccountsDB opens (or reopens) a durable partitioned database
// under dir and registers the account class with triggers on every
// partition; firings land in got.
func openAccountsDB(dir string, triggers []schema.Trigger, got *ledger, regMs *[]float64) (*part.DB, error) {
	db, err := part.Open(part.Options{N: batchPartitions, Dir: dir})
	if err != nil {
		return nil, err
	}
	err = db.Register(func(p int, e *engine.Engine) error {
		cls, impl := accountClass(triggers, func(oid store.OID, slot int) { got.fire(int(oid)-1, slot) })
		ms, err := timedRegister(e, cls, impl)
		*regMs = append(*regMs, ms)
		return err
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func (w *batchDurable) setup() error {
	dir, err := w.cfg.tempDir("batch-*")
	if err != nil {
		return err
	}
	w.dir = dir
	w.got = newLedger(w.nObj, len(durableTriggers()))
	if w.db, err = openAccountsDB(dir, durableTriggers(), w.got, &w.regMs); err != nil {
		return err
	}
	return createAccounts(w.nObj, batchPartitions, durableTriggers(), w.db.Transact)
}

func (w *batchDurable) teardown() {
	if w.db != nil {
		w.db.Close()
	}
	os.RemoveAll(w.dir)
	w.db, w.got = nil, nil
}

func (w *batchDurable) measure(res *result, tr *tracer) {
	ws := &windowSet{happenings: batchProducers * w.perW * batchLen, tailQ: 0.99}
	var walPerH, walPerCommit, skew []float64
	var perHappening [batchProducers][]float64
	all := make([]int64, 0, batchProducers*w.perW)
	// Window 0 is the sweep, windows below 1 are further warm-up.
	for win := -batchWarmWindows; win <= windows; win++ {
		traced, root := openWindow(tr, win)
		walBefore := walBytes(w.dir)
		partsBefore := w.db.PartitionStats()
		m := startMeter(w.db.Stats())
		var wg sync.WaitGroup
		errs := make([]error, batchProducers)
		for k := 0; k < batchProducers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				b := engine.NewBatch("account", batchLen)
				count, first := w.perW, w.warm+(win+batchWarmWindows-1)*w.perW
				switch {
				case win == -batchWarmWindows:
					count, first = w.warm, 0 // the warm-up sweep
				case win <= 0:
					first = w.warm + (win+batchWarmWindows-1)*w.perW
				}
				for i := 0; i < count; i++ {
					n := first + i
					w.fill(b, k, n)
					var err error
					if traced && i%batchSampleEvery == 0 {
						var ns float64
						ns, err = w.postTraced(tr, root, b, k, i, uint32(n*batchProducers+k))
						perHappening[k] = append(perHappening[k], ns)
					} else {
						t0 := nowNs()
						err = w.db.PostBatch(b)
						w.lat[k][i%w.perW] = nowNs() - t0
					}
					if err != nil && errs[k] == nil {
						errs[k] = fmt.Errorf("producer %d batch %d: %w", k, n, err)
					}
				}
			}(k)
		}
		wg.Wait()
		d := m.stop(w.db.Stats())
		tr.finish(root)
		for _, err := range errs {
			if err != nil {
				res.fail(1, "%v", err)
			}
		}
		if win <= 0 {
			continue // warm-up
		}
		res.Attempted += int64(batchProducers * w.perW)
		all = all[:0]
		for k := range w.lat {
			all = append(all, w.lat[k]...)
		}
		ws.add(d, all, traced)
		wal := float64(walBytes(w.dir) - walBefore)
		walPerH = append(walPerH, wal/float64(ws.happenings))
		walPerCommit = append(walPerCommit, wal/float64(d.stats.TxCommitted))
		skew = append(skew, partitionSkew(w.db.PartitionStats(), partsBefore))
	}
	res.markHeapEnd()
	ws.report(res)
	res.putv("store.wal_bytes_per_happening", walPerH...)
	res.putv("store.wal_bytes_per_commit", walPerCommit...)
	res.putv("part.skew", skew...)
	res.putv("part.postbatch_us", ws.p50...)
	res.putv("engine.register_class_ms", w.regMs...)
	res.putv("mask.reject_ratio", rejectRatio(w.db.Metrics()))
	st := w.db.Stats()
	res.putv("fa.table_bytes", float64(st.AutomatonTableBytes))
	res.putv("compile.cache_hit_ratio", hitRatio(st))
	res.putv("store.feed_records_retained", float64(st.EgressAppended))
	if tr != nil {
		putSpan(res, tr, "part.split_ns_per_happening", spSplit, batchLen)
		putSpan(res, tr, "part.inbox_wait_us", spInboxWait, 1e3)
		putSpan(res, tr, "engine.begin_ns", spBegin, 1)
		putSpan(res, tr, "engine.commit_durable_us", spCommit, 1e3)
		res.putv("engine.postbatch_ns_per_happening", append(perHappening[0], perHappening[1]...)...)
	}

	w.db.Drain()
	checkAccounts(res, w.got, w.want, w.record)
	w.checkpointAndRecover(res, tr)
}

// fill loads producer k's generated batch n into b.
func (w *batchDurable) fill(b *engine.Batch, k, n int) {
	in := &w.in[k]
	b.Reset()
	for e := n * batchLen; e < (n+1)*batchLen; e++ {
		b.Call(store.OID(in.obj[e])+1, methodNames[in.method[e]], value.Int(int64(in.amount[e])))
	}
}

func (w *batchDurable) record(obj int) (*store.Record, error) {
	oid := store.OID(obj) + 1
	return w.db.Partition(w.db.PartitionOf(oid)).Engine().Store().Get(oid)
}

// postTraced is part.DB.PostBatch rebuilt from the same public pieces
// (SplitBatch, DoAsync, Begin, PostBatch, Commit) with a span around
// each, for the sampled batches of a traced window. It returns the
// Tx.PostBatch time per happening, averaged over the pieces.
func (w *batchDurable) postTraced(tr *tracer, root int32, b *engine.Batch, k, slot int, req uint32) (float64, error) {
	t0 := tr.now()
	parent := tr.record(spTx, root, req, t0, 0)
	outs, err := w.db.SplitBatch(b, nil)
	t1 := tr.now()
	tr.record(spSplit, parent, req, t0, t1)
	if err != nil {
		tr.finish(parent)
		return 0, err
	}
	type piece struct {
		done   chan error
		fnEnd  int64
		postNs int64
		n      int
	}
	pieces := make([]*piece, 0, len(outs))
	for p, pc := range outs {
		if pc.Len() == 0 {
			continue
		}
		pc, pi := pc, &piece{done: make(chan error, 1), n: pc.Len()}
		pieces = append(pieces, pi)
		sent := tr.now()
		w.db.DoAsync(p, func(e *engine.Engine) error {
			a := tr.now()
			tr.record(spInboxWait, parent, req, sent, a)
			tx := e.Begin()
			began := tr.now()
			tr.record(spBegin, parent, req, a, began)
			err := tx.PostBatch(pc)
			c := tr.now()
			tr.record(spPostBatch, parent, req, began, c)
			pi.postNs = c - began
			if err != nil {
				tx.Abort()
			} else {
				err = tx.Commit()
				tr.record(spCommit, parent, req, c, tr.now())
			}
			pi.fnEnd = tr.now()
			return err
		}, pi.done)
	}
	var first error
	var perH float64
	for _, pi := range pieces {
		if err := <-pi.done; err != nil && first == nil {
			first = err
		}
		tr.record(spAckWait, parent, req, pi.fnEnd, tr.now())
		perH += float64(pi.postNs) / float64(pi.n) / float64(len(pieces))
	}
	end := tr.now()
	tr.spans[parent-1].End = end
	w.lat[k][slot] = end - t0
	return perH, first
}

// checkpointAndRecover is the closing phase: Checkpoint, clean Close,
// reopen on the same directory until the first successful Call. The
// reopened database must hold what the closed one held.
func (w *batchDurable) checkpointAndRecover(res *result, tr *tracer) {
	res.Attempted += 2
	t0 := nowNs()
	var ref int32
	if tr != nil {
		ref = tr.begin(spCheckpoint, 0, 0)
	}
	err := w.db.Checkpoint()
	tr.finish(ref)
	ckS := float64(nowNs()-t0) / 1e9
	if err != nil {
		res.fail(1, "checkpoint: %v", err)
	}
	res.putv("batch.checkpoint_s", ckS)
	res.putv("store.checkpoint_ms", ckS*1e3)
	res.putv("store.snapshot_bytes", float64(fileBytes(w.dir, "snapshot.gob")))

	type trigState struct {
		state  int
		active bool
	}
	sample := func(db *part.DB) (count int, head uint64, states []trigState) {
		for p := 0; p < db.N(); p++ {
			count += db.Partition(p).Engine().Store().Count()
		}
		// Object 0 is left out: the first Call after the reopen steps
		// its automata.
		step := w.nObj/recoverSampleObjects + 1
		for obj := 1; obj < w.nObj; obj += step {
			for _, t := range durableTriggers() {
				s, a, err := db.TriggerState(store.OID(obj)+1, t.Name)
				if err != nil {
					res.fail(1, "trigger state of object %d: %v", obj, err)
				}
				states = append(states, trigState{s, a})
			}
		}
		return count, db.FiringHead(), states
	}
	count, head, states := sample(w.db)
	if err := w.db.Close(); err != nil {
		res.fail(1, "close: %v", err)
	}
	w.db = nil
	if tr != nil {
		// store.recover_ms: the store layer alone, on each closed
		// partition directory.
		t0 = nowNs()
		for p := 0; p < batchPartitions; p++ {
			st, err := store.OpenWith(filepath.Join(w.dir, fmt.Sprintf("p%d", p)), store.Options{OIDBase: uint64(p + 1), OIDStride: batchPartitions})
			if err != nil {
				res.fail(1, "store reopen of partition %d: %v", p, err)
				continue
			}
			st.Close()
		}
		res.putv("store.recover_ms", float64(nowNs()-t0)/1e6)
	}

	t0 = nowNs()
	db, err := openAccountsDB(w.dir, durableTriggers(), w.got, &w.regMs)
	if err == nil {
		// A deposit of 1 passes no mask, so it fires nothing and the
		// feed head stays where it was.
		_, err = db.Call(1, "deposit", value.Int(1))
	}
	res.putv("batch.recover_s", float64(nowNs()-t0)/1e9)
	if err != nil {
		res.fail(1, "reopen: %v", err)
		return
	}
	w.db = db
	count2, head2, states2 := sample(db)
	if count2 != count || head2 != head {
		res.fail(1, "reopened database has %d objects and feed head %d, closed one had %d and %d", count2, head2, count, head)
	}
	for i := range states {
		if states[i] != states2[i] {
			res.fail(1, "trigger state sample %d is %+v after reopen, was %+v", i, states2[i], states[i])
			break
		}
	}
}

// createAccounts creates nObj accounts with every trigger active,
// object i in partition i%nPart, in transactions of 1000 objects, and
// checks that object i got OID i+1 — the arithmetic the ledgers and the
// generated inputs index by.
func createAccounts(nObj, nPart int, triggers []schema.Trigger, transact func(p int, fn func(*engine.Tx) error) error) error {
	const chunk = 1000
	for lo := 0; lo < nObj; lo += chunk * nPart {
		for p := 0; p < nPart; p++ {
			err := transact(p, func(tx *engine.Tx) error {
				for i := lo + p; i < lo+chunk*nPart && i < nObj; i += nPart {
					oid, err := tx.NewObject("account", nil)
					if err != nil {
						return err
					}
					if int(oid) != i+1 {
						return fmt.Errorf("object %d got OID %d", i, oid)
					}
					for _, tr := range triggers {
						if err := tx.Activate(oid, tr.Name); err != nil {
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
	}
	return nil
}

// walBytes sums the WAL files under a partitioned database's root.
func walBytes(dir string) int64 { return fileBytes(dir, "wal.log") }

// fileBytes sums the sizes of the files called name directly under dir
// or one level below it.
func fileBytes(dir, name string) int64 {
	var n int64
	for _, pattern := range []string{filepath.Join(dir, name), filepath.Join(dir, "*", name)} {
		paths, _ := filepath.Glob(pattern)
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// partitionSkew is max ÷ mean happenings per partition over a window.
func partitionSkew(after, before []engine.Stats) float64 {
	var max, sum float64
	for p := range after {
		h := float64(after[p].Happenings - before[p].Happenings)
		sum += h
		if h > max {
			max = h
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(after)))
}
