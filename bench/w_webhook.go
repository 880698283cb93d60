package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/egress"
	"ode/internal/engine"
	"ode/internal/part"
	"ode/internal/store"
	"ode/internal/value"
)

// webhook_open: open loop. One scheduler goroutine per partition issues
// two-call transactions through part.DB.DoAsync at their generated due
// times (Poisson arrivals) on a durable two-partition database; one goroutine
// runs egress.Deliverer.Run with a durable cursor and an HTTPSender
// over one keep-alive connection to a loopback receiver that
// de-duplicates on Idempotency-Key and stamps arrival. Every latency is
// taken from the transaction's due time.
const (
	webhookObjects      = 20_000
	webhookRefRung      = 1
	webhookOverloadRung = 3
	webhookLimitMs      = 100.0 // effect_p99 limit for a rung to count as met
	webhookPoll         = time.Millisecond
	webhookDrainLimit   = 30 * time.Second
	webhookLateNs       = int64(time.Millisecond) // a send this far past its slot is late
	webhookLateShareMax = 0.10
	webhookLateMinSends = 1000 // rungs shorter than this (the tests') are too few sends to judge
	webhookSampleEvery  = 4
	sweepAmount         = 1000 // above commonOver: the warm-up deposit fires
)

// webhookRates is the ladder in tx/s: 25 / 50 / 100 / 200 % of the seed
// commit's sustainable rate (README.md, "Frozen constants").
var webhookRates = [4]float64{375, 750, 1500, 3000}

// Shares of -seconds each rung sends for. Untraced runs measure the
// reference rung (latency) and the overload rung (throughput); traced
// runs walk the whole ladder after one untraced reference rung.
const (
	shareWarmup      = 0.10
	shareRef         = 0.50
	shareOverload    = 0.35
	shareTracedRung  = 0.15
	webhookMinPerRun = 20
)

// rung is one stretch of the schedule at one rate.
type rung struct {
	ladder   int // index into webhookRates
	lo, hi   int // transactions [lo, hi) of the schedule
	traced   bool
	measured bool // false for the warm-up

	startNs, drainedNs int64
	mallocs            float64
	walBytes           int64
	lagMid, lagEnd     uint64
}

type webhookOpen struct {
	cfg      *config
	nObj     int
	sched    openTx
	rungs    []rung
	want     *model
	effectTx map[uint64]int32 // obj<<32 | firing ordinal → transaction

	// Per-transaction observations, ns on the harness clock.
	dueAt, submitAt, ackAt, effectAt []int64
	free                             []bool  // the scheduler was idle when the slot came
	parent                           []int32 // request span of sampled transactions
	txErrs                           atomic.Int64
	stall                            time.Duration // test hook: sleep inside every submitted fn

	dir     string
	db      *part.DB
	got     *ledger
	regMs   []float64
	srv     *httptest.Server
	client  *http.Client
	cursor  *egress.Cursor
	dlv     *egress.Deliverer
	stop    chan struct{}
	stopped sync.WaitGroup
	recv    *receiver
	snd     *timedSender
	lags    *lagSampler
}

func (w *webhookOpen) generate(cfg *config) string {
	w.cfg = cfg
	w.nObj = cfg.scaled(webhookObjects, 16)
	w.want = newModel(false, w.nObj)
	for obj := 0; obj < w.nObj; obj++ { // the warm-up sweep
		w.want.call(uint32(obj), mDeposit, sweepAmount)
		w.want.commit()
	}
	r := &rng{s: cfg.seed}
	fireCount := make([]uint32, w.nObj)
	add := func(ladder int, share float64, traced, measured bool) {
		n := cfg.scaled(int(webhookRates[ladder]*cfg.seconds*share), webhookMinPerRun)
		lo := len(w.sched.obj)
		genOpen(r, &w.sched, w.want, fireCount, w.nObj, n, webhookRates[ladder])
		w.rungs = append(w.rungs, rung{ladder: ladder, lo: lo, hi: lo + n, traced: traced, measured: measured})
	}
	add(webhookRefRung, shareWarmup, false, false)
	if cfg.trace {
		add(webhookRefRung, shareTracedRung, false, true)
		for ladder := range webhookRates {
			add(ladder, shareTracedRung, true, true)
		}
	} else {
		add(webhookRefRung, shareRef, false, true)
		add(webhookOverloadRung, shareOverload, false, true)
	}
	n := len(w.sched.obj)
	w.effectTx = make(map[uint64]int32, n/2)
	for i, ord := range w.sched.ordinal {
		if ord > 0 {
			w.effectTx[uint64(w.sched.obj[i])<<32|uint64(ord)] = int32(i)
		}
	}
	w.dueAt, w.submitAt = make([]int64, n), make([]int64, n)
	w.ackAt, w.effectAt, w.parent = make([]int64, n), make([]int64, n), make([]int32, n)
	w.free = make([]bool, n)
	return digestOf(&w.sched)
}

func (w *webhookOpen) setup() error {
	dir, err := w.cfg.tempDir("webhook-*")
	if err != nil {
		return err
	}
	w.dir = dir
	w.got = newLedger(w.nObj, len(durableTriggers()))
	if w.db, err = openAccountsDB(dir, durableTriggers(), w.got, &w.regMs); err != nil {
		return err
	}
	if err := createAccounts(w.nObj, batchPartitions, durableTriggers(), w.db.Transact); err != nil {
		return err
	}
	w.recv = &receiver{w: w, seen: map[string]struct{}{}, perObj: make([]uint32, w.nObj)}
	w.srv = httptest.NewServer(w.recv)
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if w.cursor, err = egress.OpenCursor(filepath.Join(dir, "cursor"), nil); err != nil {
		return err
	}
	n := len(w.sched.obj)
	w.snd = &timedSender{w: w, inner: &egress.HTTPSender{URL: w.srv.URL, Client: w.client},
		perObj: make([]uint32, w.nObj), startAt: make([]int64, n), endAt: make([]int64, n)}
	return nil
}

// warmUp makes one accepted deposit on every object, in batches, and
// only then starts the deliverer, positioned past the firings the sweep
// produced. An object's first firing allocates its provenance rings;
// with 20 000 objects picked uniformly nearly every measured
// transaction would otherwise be its object's first.
func (w *webhookOpen) warmUp(res *result) {
	b := engine.NewBatch("account", batchLen)
	for lo := 0; lo < w.nObj; lo += batchLen {
		b.Reset()
		for obj := lo; obj < lo+batchLen && obj < w.nObj; obj++ {
			b.Call(store.OID(obj)+1, "deposit", value.Int(sweepAmount))
		}
		if err := w.db.PostBatch(b); err != nil {
			res.fail(1, "warm-up sweep: %v", err)
		}
	}
	w.db.Drain()
	w.dlv = egress.NewDeliverer(w.db, w.snd, egress.DelivererOptions{Cursor: w.cursor, From: w.db.FiringHead() + 1})
	w.lags = &lagSampler{}
	w.stop = make(chan struct{})
	w.stopped.Add(2)
	go func() { defer w.stopped.Done(); w.dlv.Run(w.stop, webhookPoll) }()
	go func() { defer w.stopped.Done(); w.lags.run(w.dlv, w.stop) }()
}

func (w *webhookOpen) teardown() {
	if w.stop != nil {
		close(w.stop)
		w.stopped.Wait()
		w.stop = nil
	}
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.srv.Close()
	}
	if w.cursor != nil {
		w.cursor.Close()
	}
	if w.db != nil {
		w.db.Close()
	}
	os.RemoveAll(w.dir)
	w.db, w.got, w.srv, w.cursor, w.dlv = nil, nil, nil, nil, nil
}

func (w *webhookOpen) measure(res *result, tr *tracer) {
	w.warmUp(res)
	before := w.db.Stats()
	for i := range w.rungs {
		w.runRung(res, &w.rungs[i], tr)
	}
	res.markHeapEnd()
	after := w.db.Stats().Delta(before)

	var ref, over *rung
	var ladder [len(webhookRates)]*rung
	for i := range w.rungs {
		r := &w.rungs[i]
		switch {
		case !r.measured:
		case r.traced:
			ladder[r.ladder] = r
		case r.ladder == webhookRefRung:
			ref = r
		default:
			over = r
		}
	}
	if over == nil {
		over = ladder[webhookOverloadRung]
	}

	// End-to-end: latency at the reference rate, throughput under
	// overload (offered 200 %, so the completed rate is the capacity).
	effRef := w.latencies(ref, w.effectAt)
	res.Attempted += int64(over.hi - over.lo + ref.hi - ref.lo)
	res.putv("effect_p50_us", quantile(effRef, 0.5)/1e3)
	res.putv("effect_tail_us", quantile(effRef, 0.99)/1e3)
	hOver := w.happenings(over)
	res.putv("happenings_per_s", hOver/(float64(over.drainedNs-over.startNs)/1e9))
	res.putv("allocs_per_happening", (ref.mallocs+over.mallocs)/(w.happenings(ref)+hOver))

	txRef := w.latencies(ref, w.ackAt)
	res.putv("webhook.tx_p50_us", quantile(txRef, 0.5)/1e3)
	res.putv("webhook.tx_p99_us", quantile(txRef, 0.99)/1e3)
	late, selfLate, maxLag := w.lateness(ref)
	res.putv("gen.late_share", late)
	res.putv("gen.self_late_share", selfLate)
	res.putv("gen.max_lag_ms", maxLag/1e6)
	res.putv("store.wal_bytes_per_happening", float64(ref.walBytes)/w.happenings(ref))
	res.putv("store.wal_bytes_per_commit", float64(ref.walBytes)/float64(ref.hi-ref.lo))
	calls := float64(2 * len(w.sched.obj))
	res.putv("engine.steps_per_happening", float64(after.Steps)/calls)
	res.putv("engine.mask_evals_per_happening", float64(after.MaskEvals)/calls)
	res.putv("engine.firings_per_happening", float64(after.Firings)/calls)
	res.putv("engine.tcomplete_rounds_per_tx", float64(after.TcompleteRounds)/float64(after.TxCommitted))
	res.putv("engine.register_class_ms", w.regMs...)
	res.putv("mask.reject_ratio", rejectRatio(w.db.Metrics()))
	st := w.db.Stats()
	res.putv("fa.table_bytes", float64(st.AutomatonTableBytes))
	res.putv("compile.cache_hit_ratio", hitRatio(st))
	res.putv("store.feed_records_retained", float64(st.EgressAppended))

	ds := w.dlv.Stats()
	res.putv("egress.retries", float64(ds.Retries))
	res.putv("egress.gave_up", float64(ds.GaveUp))
	res.putv("egress.lag_max", float64(w.lags.top.Load()))
	res.putv("egress.cursor_bytes", float64(fileBytes(w.dir, "cursor")))
	w.snd.report(res)

	if tr != nil {
		var maxOK float64
		for k, r := range ladder {
			eff := w.latencies(r, w.effectAt)
			p50, p99 := quantile(eff, 0.5)/1e6, quantile(eff, 0.99)/1e6
			growth := w.backlog(r, r.hi-1, r.lagEnd) - w.backlog(r, (r.lo+r.hi)/2, r.lagMid)
			res.putv(fmt.Sprintf("webhook.rate%d.effect_p50_ms", k+1), p50)
			res.putv(fmt.Sprintf("webhook.rate%d.effect_p99_ms", k+1), p99)
			res.putv(fmt.Sprintf("webhook.rate%d.backlog_growth", k+1), growth)
			if allowed := 0.01 * float64(len(eff)); p99 <= webhookLimitMs && growth <= allowed+10 {
				maxOK = webhookRates[k]
			}
		}
		res.putv("webhook.max_rate_ok_per_s", maxOK)
		// Tracing overhead on an open loop shows in latency, not
		// throughput: traced against untraced reference rung.
		on := quantile(w.latencies(ladder[webhookRefRung], w.effectAt), 0.5)
		res.putv("bench.trace_overhead_share", on/quantile(effRef, 0.5)-1)
		w.egressSpans(tr)
		putSpan(res, tr, "part.inbox_wait_us", spInboxWait, 1e3)
		putSpan(res, tr, "engine.begin_ns", spBegin, 1)
		putSpan(res, tr, "engine.call_ns", spCall, 1)
		putSpan(res, tr, "engine.call_firing_ns", spCallFiring, 1)
		putSpan(res, tr, "engine.commit_durable_us", spCommit, 1e3)
		putSpan(res, tr, "egress.publish_to_send_ms", spPublishWait, 1e6)
	}

	// Validity and correctness.
	for i := range w.rungs {
		r := &w.rungs[i]
		if _, self, _ := w.lateness(r); r.measured && r.ladder <= webhookRefRung && r.hi-r.lo >= webhookLateMinSends && self > webhookLateShareMax {
			res.fail(1, "rung at %.0f tx/s: %.1f %% of sends were issued late by an idle generator; it cannot hold the schedule", webhookRates[r.ladder], self*100)
		}
	}
	if n := w.txErrs.Load(); n > 0 {
		res.fail(n, "%d transactions failed", n)
	}
	lost, dups, unknown := w.recv.tally(len(w.effectTx))
	if lost > 0 {
		res.fail(int64(lost), "%d firings never reached the receiver", lost)
	}
	if unknown > 0 {
		res.fail(int64(unknown), "%d deliveries match no generated firing", unknown)
	}
	res.putv("egress.duplicate_deliveries", float64(dups))
	w.db.Drain()
	checkAccounts(res, w.got, w.want, func(obj int) (*store.Record, error) {
		oid := store.OID(obj) + 1
		return w.db.Partition(w.db.PartitionOf(oid)).Engine().Store().Get(oid)
	})
}

// runRung issues one rung's transactions at their due times, then
// waits for the partitions to finish and for every firing to reach the
// receiver (at most webhookDrainLimit).
func (w *webhookOpen) runRung(res *result, r *rung, tr *tracer) {
	if !r.traced {
		tr = nil
	}
	var root int32
	if tr != nil {
		root = tr.begin(spWindow, 0, 0)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	wal := walBytes(w.dir)
	want := w.recv.count()
	for i := r.lo; i < r.hi; i++ {
		if w.sched.ordinal[i] > 0 {
			want++
		}
	}

	// The due times are relative to the rung's start; leave the
	// schedulers a moment before the first one. One scheduler per
	// partition: a blocking inbox then delays only its own partition's
	// later sends, as independent clients would be delayed.
	r.startNs = nowNs() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for p := 0; p < batchPartitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			w.schedule(r, p, root, tr)
		}(p)
	}
	wg.Wait()
	r.lagEnd = w.dlv.Stats().Lag
	w.db.Drain()
	deadline := time.Now().Add(webhookDrainLimit)
	for w.recv.count() < want && time.Now().Before(deadline) {
		time.Sleep(webhookPoll)
	}
	r.drainedNs = nowNs()
	runtime.ReadMemStats(&ms)
	r.mallocs = float64(ms.Mallocs - mallocs)
	r.walBytes = walBytes(w.dir) - wal
	if tr != nil {
		for i := r.lo; i < r.hi; i++ {
			if p := w.parent[i]; p > 0 {
				end := w.ackAt[i]
				if w.effectAt[i] > end {
					end = w.effectAt[i]
				}
				tr.spans[p-1].End = end
			}
		}
		tr.spans[root-1].End = r.drainedNs
	}
}

// schedule issues the rung's transactions that partition p owns, each
// at its due time. free[i] records whether the scheduler was waiting
// for the slot (true) or still blocked in the previous DoAsync when it
// came (false): only the first kind of lateness is the generator's.
func (w *webhookOpen) schedule(r *rung, p int, root int32, tr *tracer) {
	mid := (r.lo + r.hi) / 2
	for i := r.lo; i < r.hi; i++ {
		if part.PartitionOf(store.OID(w.sched.obj[i])+1, batchPartitions) != p {
			continue
		}
		due := r.startNs + w.sched.dueNs[i]
		w.dueAt[i] = due
		now := nowNs()
		w.free[i] = now <= due
		for ; now < due; now = nowNs() {
			if due-now > int64(20*time.Microsecond) {
				time.Sleep(time.Duration(due - now))
			} else {
				runtime.Gosched()
			}
		}
		if i == mid {
			r.lagMid = w.dlv.Stats().Lag
		}
		if tr != nil && i%webhookSampleEvery == 0 {
			w.parent[i] = tr.record(spTx, root, uint32(i), due, 0)
		}
		w.submitAt[i] = nowNs()
		w.db.DoAsync(p, w.txFn(i, tr), nil)
	}
}

// txFn is the harness code that runs transaction i inside its
// partition's loop; with a tracer it records a span around each call
// into the engine for the sampled transactions.
func (w *webhookOpen) txFn(i int, tr *tracer) func(*engine.Engine) error {
	return func(e *engine.Engine) error {
		a := nowNs()
		if w.stall > 0 {
			time.Sleep(w.stall)
		}
		oid := store.OID(w.sched.obj[i]) + 1
		parent, req := w.parent[i], uint32(i)
		if tr == nil || parent == 0 {
			tx := e.Begin()
			_, err := tx.Call(oid, "deposit", value.Int(int64(w.sched.dep[i])))
			if err == nil {
				_, err = tx.Call(oid, "withdraw", value.Int(int64(w.sched.wdr[i])))
			}
			if err != nil {
				tx.Abort()
			} else {
				err = tx.Commit()
			}
			w.ackAt[i] = nowNs()
			if err != nil {
				w.txErrs.Add(1)
			}
			return err
		}
		if w.submitAt[i] > w.dueAt[i] {
			tr.record(spSubmitLag, parent, req, w.dueAt[i], w.submitAt[i])
		}
		tr.record(spInboxWait, parent, req, w.submitAt[i], a)
		tx := e.Begin()
		b := nowNs()
		tr.record(spBegin, parent, req, a, b)
		_, err := tx.Call(oid, "deposit", value.Int(int64(w.sched.dep[i])))
		c := nowNs()
		name := spCall
		if w.sched.ordinal[i] > 0 {
			name = spCallFiring
		}
		tr.record(name, parent, req, b, c)
		if err == nil {
			_, err = tx.Call(oid, "withdraw", value.Int(int64(w.sched.wdr[i])))
		}
		d := nowNs()
		tr.record(spCall, parent, req, c, d)
		if err != nil {
			tx.Abort()
		} else {
			err = tx.Commit()
		}
		w.ackAt[i] = nowNs()
		tr.record(spCommit, parent, req, d, w.ackAt[i])
		if err != nil {
			w.txErrs.Add(1)
		}
		return err
	}
}

// egressSpans adds, for each sampled firing transaction, the spans the
// deliverer's side saw: commit ack → Send start, and Send itself.
func (w *webhookOpen) egressSpans(tr *tracer) {
	w.snd.mu.Lock()
	defer w.snd.mu.Unlock()
	for i, p := range w.parent {
		if p == 0 || w.snd.endAt[i] == 0 {
			continue
		}
		start := w.snd.startAt[i]
		if ack := w.ackAt[i]; ack < start {
			tr.record(spPublishWait, p, uint32(i), ack, start)
		}
		tr.record(spSend, p, uint32(i), start, w.snd.endAt[i])
	}
}

// latencies returns, sorted, at[i] − due[i] in ns over the rung's
// transactions that have the observation (every transaction has a
// commit ack; only firing ones have an effect).
func (w *webhookOpen) latencies(r *rung, at []int64) []float64 {
	var out []int64
	for i := r.lo; i < r.hi; i++ {
		if at[i] > 0 {
			out = append(out, at[i]-w.dueAt[i])
		}
	}
	return sortedCopy(out)
}

// backlog is the work queued when transaction at was submitted: the
// firings the deliverer had not yet sent (lag, sampled then) plus the
// rung's transactions already due but not yet submitted — the inbox is
// unbuffered, so that is where an overloaded partition's queue lives.
func (w *webhookOpen) backlog(r *rung, at int, lag uint64) float64 {
	n := float64(lag)
	for j := r.lo; j < r.hi; j++ {
		if w.dueAt[j] <= w.submitAt[at] && w.submitAt[j] > w.submitAt[at] {
			n++
		}
	}
	return n
}

// happenings counts a rung's posted calls plus delivered effects.
func (w *webhookOpen) happenings(r *rung) float64 {
	n := 2 * (r.hi - r.lo)
	for i := r.lo; i < r.hi; i++ {
		if w.effectAt[i] > 0 {
			n++
		}
	}
	return float64(n)
}

// lateness reports the share of the rung's sends issued more than
// webhookLateNs after their slot, the share that were late although
// the scheduler was idle when the slot came (the generator's own
// fault, not the inbox's back-pressure), and the largest lag in ns.
func (w *webhookOpen) lateness(r *rung) (late, selfLate, maxLag float64) {
	for i := r.lo; i < r.hi; i++ {
		lag := w.submitAt[i] - w.dueAt[i]
		if lag > webhookLateNs {
			late++
			if w.free[i] {
				selfLate++
			}
		}
		if float64(lag) > maxLag {
			maxLag = float64(lag)
		}
	}
	n := float64(r.hi - r.lo)
	return late / n, selfLate / n, maxLag
}

// receiver is the loopback webhook endpoint: it de-duplicates on
// Idempotency-Key and stamps the arrival of each firing, matched to its
// transaction by object and per-object firing ordinal (the record
// carries no payload).
type receiver struct {
	w       *webhookOpen
	mu      sync.Mutex
	seen    map[string]struct{}
	perObj  []uint32
	effects int
	dups    int
	unknown int
}

func (r *receiver) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	now := nowNs()
	var rec struct{ OID uint64 }
	if err == nil {
		err = json.Unmarshal(body, &rec)
	}
	if err != nil || rec.OID == 0 || rec.OID > uint64(len(r.perObj)) {
		http.Error(rw, "bad firing record", http.StatusBadRequest)
		return
	}
	key := req.Header.Get("Idempotency-Key")
	r.mu.Lock()
	if _, dup := r.seen[key]; dup {
		r.dups++
	} else {
		r.seen[key] = struct{}{}
		obj := rec.OID - 1
		r.perObj[obj]++
		if tx, ok := r.w.effectTx[obj<<32|uint64(r.perObj[obj])]; ok {
			r.w.effectAt[tx] = now
			r.effects++
		} else {
			r.unknown++
		}
	}
	r.mu.Unlock()
	rw.WriteHeader(http.StatusNoContent)
}

func (r *receiver) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.effects
}

func (r *receiver) tally(expected int) (lost, dups, unknown int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return expected - r.effects, r.dups, r.unknown
}

// timedSender wraps the HTTPSender: the span around Send, and the gap
// between one Send's end and the next one's start while the deliverer
// still has a backlog (cursor save + fetch).
type timedSender struct {
	w     *webhookOpen
	inner egress.Sender

	mu          sync.Mutex
	perObj      []uint32
	startAt     []int64 // per transaction
	endAt       []int64
	sendNs      []float64
	gapNs       []float64
	lastEnd     int64
	lastBacklog bool
}

func (s *timedSender) Send(rec store.FiringRecord, key string) error {
	t0 := nowNs()
	err := s.inner.Send(rec, key)
	t1 := nowNs()
	backlog := s.w.db.FiringHead() > s.w.db.FiringPos(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastBacklog {
		s.gapNs = append(s.gapNs, float64(t0-s.lastEnd))
	}
	s.lastEnd, s.lastBacklog = t1, backlog
	s.sendNs = append(s.sendNs, float64(t1-t0))
	if err == nil {
		obj := uint64(rec.OID) - 1
		s.perObj[obj]++
		if tx, ok := s.w.effectTx[obj<<32|uint64(s.perObj[obj])]; ok {
			s.startAt[tx], s.endAt[tx] = t0, t1
		}
	}
	return err
}

func (s *timedSender) report(res *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	div := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] / by
		}
		return out
	}
	if len(s.sendNs) > 0 {
		res.putv("egress.http_send_us", div(s.sendNs, 1e3)...)
	}
	if len(s.gapNs) > 0 {
		res.putv("egress.between_sends_us", div(s.gapNs, 1e3)...)
	}
}

// lagSampler samples Deliverer.Stats at 10 Hz and keeps the largest lag.
type lagSampler struct{ top atomic.Uint64 }

func (l *lagSampler) run(d *egress.Deliverer, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if lag := d.Stats().Lag; lag > l.top.Load() {
				l.top.Store(lag)
			}
		}
	}
}
