package sim

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"ode/internal/engine"
	"ode/internal/fault"
	"ode/internal/oracle"
	"ode/internal/part"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// The multi-partition harness drives a part.DB — N single-writer
// engines behind the router and the sequenced bus — through seeded
// scripts, under the same three oracles as the single-engine harness:
// the §4 / §6 trace checker (one per partition, across the bus), a
// per-partition ledger of object state, and per-fault crash-recovery
// contracts. Each partition carries its own fault registry
// (part.Options.PerPartition), so a WAL fault targets exactly one
// partition's log; the simulated crash is fail-stop for the whole
// process, and each partition then recovers independently from its own
// WAL.

// MultiConfig parameterizes multi-partition script generation.
type MultiConfig struct {
	Seed       int64
	Partitions int
	// Steps is the number of workload steps after the per-partition
	// setup transactions.
	Steps int
	// Objects is the number of objects created per class per partition.
	Objects int
	// Persistent runs WAL-backed partitions; required for fault steps.
	Persistent bool
	// Faults enables per-partition WAL fault steps (persistent only —
	// the single-writer engines never consult the lock-acquire point).
	Faults bool
}

// MultiDefaults returns a modest configuration for test budgets.
func MultiDefaults(seed int64) MultiConfig {
	return MultiConfig{Seed: seed, Partitions: 3, Steps: 40, Objects: 2}
}

// MStepKind enumerates multi-partition script steps.
type MStepKind uint8

const (
	// MStepTx runs Ops in one transaction on partition Part.
	MStepTx MStepKind = iota
	// MStepRelay forwards one method call from partition Src over the
	// bus to the object at (DstPart, DstSlot), then drains to quiescence.
	MStepRelay
	// MStepAdvance moves every partition's virtual clock.
	MStepAdvance
	// MStepCheckpoint checkpoints every partition.
	MStepCheckpoint
	// MStepFault arms a WAL fault on partition Part's registry, runs Ops
	// as the victim transaction there, and — if the fault fired —
	// simulates a whole-process crash with independent per-partition
	// recovery.
	MStepFault
)

// MStep is one step of a multi-partition script. Object slots are
// partition-local: (Part, Ops[i].Obj) and (DstPart, DstSlot) address
// the executor's per-partition object tables.
type MStep struct {
	Kind    MStepKind
	Part    int
	Ops     []Op
	Abort   bool
	Advance time.Duration
	Fault   FaultSpec

	Src     int
	DstPart int
	DstSlot int
	Method  string
	Arg     int64
	HasArg  bool
}

func (st MStep) String() string {
	switch st.Kind {
	case MStepRelay:
		if st.HasArg {
			return fmt.Sprintf("relay p%d -> p%d/o%d.%s(%d)", st.Src, st.DstPart, st.DstSlot, st.Method, st.Arg)
		}
		return fmt.Sprintf("relay p%d -> p%d/o%d.%s()", st.Src, st.DstPart, st.DstSlot, st.Method)
	case MStepAdvance:
		return fmt.Sprintf("advance %s", st.Advance)
	case MStepCheckpoint:
		return "checkpoint"
	case MStepFault:
		return fmt.Sprintf("fault p%d %v tear=%d; %s", st.Part, st.Fault.Point, st.Fault.Tear, opsString(st.Ops))
	default:
		verb := "tx"
		if st.Abort {
			verb = "tx-abort"
		}
		return fmt.Sprintf("%s p%d %s", verb, st.Part, opsString(st.Ops))
	}
}

// MultiScript is a deterministic multi-partition simulation input.
type MultiScript struct {
	Seed       int64
	Partitions int
	Persistent bool
	Steps      []MStep
}

// String renders the script as a reproduction recipe.
func (sc *MultiScript) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# multipart sim script seed=%d partitions=%d persistent=%v\n",
		sc.Seed, sc.Partitions, sc.Persistent)
	for i, st := range sc.Steps {
		fmt.Fprintf(&b, "%3d: %s\n", i, st.String())
	}
	return b.String()
}

// GenerateMulti derives a deterministic multi-partition script from
// cfg. Like Generate, all randomness is consumed here.
func GenerateMulti(cfg MultiConfig) *MultiScript {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 3
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 40
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &MultiScript{Seed: cfg.Seed, Partitions: cfg.Partitions, Persistent: cfg.Persistent}
	// The fixed trigger pool only; random triggers stay a single-engine
	// concern (the combinator coverage is identical on every partition).
	fake := &Script{Persistent: cfg.Persistent}

	slotClass := make([][]int, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		var init []Op
		for ci := range classDefs {
			for i := 0; i < cfg.Objects; i++ {
				slot := len(slotClass[p])
				slotClass[p] = append(slotClass[p], ci)
				init = append(init, Op{Kind: OpNew, Obj: slot, Class: ci})
				init = append(init, activateAll(fake, rng, slot, ci)...)
			}
		}
		sc.Steps = append(sc.Steps, MStep{Kind: MStepTx, Part: p, Ops: init})
	}

	for s := 0; s < cfg.Steps; s++ {
		r := rng.Intn(100)
		p := rng.Intn(cfg.Partitions)
		switch {
		case r < 6:
			sc.Steps = append(sc.Steps, MStep{Kind: MStepAdvance,
				Advance: time.Duration(1+rng.Intn(30)) * time.Hour})
		case r < 10 && cfg.Persistent:
			sc.Steps = append(sc.Steps, MStep{Kind: MStepCheckpoint})
		case r < 22 && cfg.Faults && cfg.Persistent:
			sc.Steps = append(sc.Steps, genMultiFault(rng, p))
		case r < 40:
			// Cross-partition forwarding: a primitive occurrence relayed
			// over the bus. Arguments stay below the AbortBig threshold and
			// off Boom's and Again's amounts (tame), so the relayed
			// transaction always commits and the ledger applies its effect
			// unconditionally.
			dstPart := rng.Intn(cfg.Partitions)
			dstSlot := rng.Intn(len(slotClass[dstPart]))
			st := MStep{Kind: MStepRelay, Src: p, DstPart: dstPart, DstSlot: dstSlot}
			if slotClass[dstPart][dstSlot] == classAcct {
				st.Method = []string{"dep", "wdr"}[rng.Intn(2)]
				st.HasArg, st.Arg = true, tame(int64(1+rng.Intn(400)))
			} else {
				st.Method = "bump"
			}
			sc.Steps = append(sc.Steps, st)
		case r < 48:
			sc.Steps = append(sc.Steps, MStep{Kind: MStepTx, Part: p, Abort: true,
				Ops: genOps(fake, rng, slotClass[p], 1+rng.Intn(3), nil)})
		default:
			sc.Steps = append(sc.Steps, MStep{Kind: MStepTx, Part: p,
				Ops: genOps(fake, rng, slotClass[p], 1+rng.Intn(4), &slotClass[p])})
		}
	}
	return sc
}

// tame steps n off the amounts that make Boom and Again abort their
// transaction: a relay must commit, and a fault victim must reach its
// commit frame.
func tame(n int64) int64 {
	if n == panicArg || n == recurseArg {
		return n + 1
	}
	return n
}

// genMultiFault picks a WAL fault point for partition p's registry.
// The victim always updates reserved slot 0 (class acct) so its commit
// writes p's WAL.
func genMultiFault(rng *rand.Rand, p int) MStep {
	victim := []Op{{Kind: OpCall, Obj: 0, Method: "dep", HasArg: true, Arg: tame(int64(1 + rng.Intn(200)))}}
	switch rng.Intn(5) {
	case 0:
		return MStep{Kind: MStepFault, Part: p, Ops: victim,
			Fault: FaultSpec{Point: fault.WALWrite, Tear: -1}}
	case 1:
		return MStep{Kind: MStepFault, Part: p, Ops: victim,
			Fault: FaultSpec{Point: fault.WALWrite, Tear: 1 + rng.Intn(64)}}
	case 2:
		return MStep{Kind: MStepFault, Part: p, Ops: victim,
			Fault: FaultSpec{Point: fault.WALSync, Tear: -1}}
	case 3:
		return MStep{Kind: MStepFault, Part: p, Ops: victim,
			Fault: FaultSpec{Point: fault.WALAfterSync, Tear: -1}}
	default:
		// Torn multi-record frame: both reserved acct slots in one batch.
		return MStep{Kind: MStepFault, Part: p,
			Ops: []Op{{Kind: OpBatch, Class: classAcct, Batch: []BatchCall{
				{Obj: 0, Method: "dep", HasArg: true, Arg: tame(int64(1 + rng.Intn(200)))},
				{Obj: 1, Method: "dep", HasArg: true, Arg: tame(int64(1 + rng.Intn(200)))},
			}}},
			Fault: FaultSpec{Point: fault.WALWrite, Tear: 1 + rng.Intn(256)}}
	}
}

// MultiResult summarizes one deterministic multi-partition run.
type MultiResult struct {
	Seed           int64
	Firings        [][]string // per partition, in that partition's firing order
	Crashes        int
	Recoveries     int
	TornTails      int
	InjectedFaults uint64
	Fingerprint    string
}

// mStage stages one partition-local transaction's model updates.
type mStage struct {
	x       *mexec
	part    int
	touched map[int]*objState
}

func (s *mStage) view(slot int) *objState {
	if v, ok := s.touched[slot]; ok {
		return v
	}
	return s.x.slot(s.part, slot)
}

func (s *mStage) put(slot int, v *objState) { s.touched[slot] = v }

func (s *mStage) commit() {
	for slot, v := range s.touched {
		s.x.setSlot(s.part, slot, v)
	}
}

type mexec struct {
	sc   *MultiScript
	dir  string
	regs []*fault.Registry
	db   *part.DB

	model  [][]*objState
	seeded []store.FiringRecord // the merged feed as the last open indexed it

	fireMu  sync.Mutex
	firings [][]string
	outcome outcomeLog

	chks         []*oracle.Checker // the trace checker, per partition
	timerErrSeen []int
	relayErrSeen int
	crashes      int
	recoveries   int
	tornTails    int
}

func (x *mexec) slot(p, i int) *objState {
	if i < len(x.model[p]) {
		return x.model[p][i]
	}
	return nil
}

func (x *mexec) setSlot(p, i int, v *objState) {
	for len(x.model[p]) <= i {
		x.model[p] = append(x.model[p], nil)
	}
	x.model[p][i] = v
}

// ExecuteMultiTemp executes sc with a scratch directory when needed.
func ExecuteMultiTemp(sc *MultiScript, base string) (*MultiResult, error) {
	dir := ""
	if sc.Persistent {
		d, err := os.MkdirTemp(base, "odesim-part-*")
		if err != nil {
			return nil, fmt.Errorf("sim: scratch dir: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	return ExecuteMulti(sc, dir)
}

// ExecuteMulti runs a multi-partition script to completion. Failures
// are returned as errors prefixed with the seed and step — the script
// is fully reproducible from the seed via GenerateMulti.
func ExecuteMulti(sc *MultiScript, dir string) (*MultiResult, error) {
	if sc.Persistent && dir == "" {
		return nil, errors.New("sim: persistent multipart script needs a directory")
	}
	x := &mexec{
		sc:      sc,
		dir:     dir,
		model:   make([][]*objState, sc.Partitions),
		firings: make([][]string, sc.Partitions),
	}
	for p := 0; p < sc.Partitions; p++ {
		reg := fault.New()
		reg.FailStop()
		x.regs = append(x.regs, reg)
		x.chks = append(x.chks, oracle.New())
	}
	if err := x.open(time.Time{}); err != nil {
		return nil, fmt.Errorf("sim: multipart open: %w", err)
	}
	defer func() { x.db.Close() }()

	for i, st := range sc.Steps {
		err := x.runStep(st)
		if err == nil {
			err = x.drain()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: multipart seed %d failed at step %d (%s): %w\nreproduce with:\n%s",
				sc.Seed, i, st, err, sc.String())
		}
	}
	// Final oracles: ledger per partition, §4 replay across the bus,
	// ownership invariant.
	x.db.Drain()
	for p := 0; p < sc.Partitions; p++ {
		if err := modelStateErr(x.db.Partition(p).Engine().Store(), x.model[p], nil, false); err != nil {
			return nil, fmt.Errorf("sim: multipart seed %d: final ledger, partition %d: %w", sc.Seed, p, err)
		}
		if err := timerScheduleErr(x.db.Partition(p).Engine()); err != nil {
			return nil, fmt.Errorf("sim: multipart seed %d: partition %d: %w", sc.Seed, p, err)
		}
	}
	if err := x.verify(); err != nil {
		return nil, fmt.Errorf("sim: multipart seed %d: final trace check: %w", sc.Seed, err)
	}
	if err := x.db.CheckOwnership(); err != nil {
		return nil, fmt.Errorf("sim: multipart seed %d: %w", sc.Seed, err)
	}
	if err := feedErr(x.db, x.seeded); err != nil {
		return nil, fmt.Errorf("sim: multipart seed %d: final feed: %w", sc.Seed, err)
	}

	var injected uint64
	for _, reg := range x.regs {
		injected += reg.Injected()
	}
	res := &MultiResult{
		Seed:           sc.Seed,
		Firings:        x.firings,
		Crashes:        x.crashes,
		Recoveries:     x.recoveries,
		TornTails:      x.tornTails,
		InjectedFaults: injected,
	}
	res.Fingerprint = x.fingerprint()
	return res, nil
}

// open builds a part.DB incarnation: every partition gets its own
// fault registry and recovers (when persistent) from its own WAL.
func (x *mexec) open(start time.Time) error {
	db, err := part.Open(part.Options{
		N:      x.sc.Partitions,
		Dir:    x.dir,
		Engine: engine.Options{Start: start},
		PerPartition: func(p int, eo *engine.Options) {
			eo.Faults = x.regs[p]
		},
	})
	if err != nil {
		return err
	}
	fake := &Script{Persistent: x.sc.Persistent}
	err = db.Register(func(p int, e *engine.Engine) error {
		for ci := range classDefs {
			cls, impl := buildClass(ci, fake, x.fire)
			if _, rerr := e.RegisterClass(cls, impl, nil); rerr != nil {
				return rerr
			}
		}
		return nil
	})
	if err != nil {
		db.Close()
		return err
	}
	for p, chk := range x.chks {
		Attach(chk, db.Partition(p).Engine())
	}
	x.db = db
	x.timerErrSeen = make([]int, x.sc.Partitions)
	x.relayErrSeen = 0
	// An open indexes the recovered logs merged by (AtNs, Part, Seq).
	x.seeded = nil
	for p := 0; p < x.sc.Partitions; p++ {
		recs, _ := db.Partition(p).Engine().FiringsAfter(0, 0)
		x.seeded = append(x.seeded, recs...)
	}
	slices.SortFunc(x.seeded, func(a, b store.FiringRecord) int {
		return cmp.Or(cmp.Compare(a.AtNs, b.AtNs), cmp.Compare(a.Part, b.Part), cmp.Compare(a.Seq, b.Seq))
	})
	if err := feedErr(db, x.seeded); err != nil {
		return fmt.Errorf("merged feed at open: %w", err)
	}
	return nil
}

// feedErr checks db's merged feed against the partitions' own logs: its
// first positions hold seeded, every later one the next record of one
// partition's log in Seq order, and every record of every log is in it.
// FiringsAfter over a grid of (after, max) reads slices of that feed,
// FiringPos of each record is its position and of an absent identity 0,
// and FiringHead is its length.
func feedErr(db *part.DB, seeded []store.FiringRecord) error {
	all, head := db.FiringsAfter(0, 0)
	if n := uint64(len(all)); head != n || db.FiringHead() != n {
		return fmt.Errorf("feed: %d records, FiringsAfter head %d, FiringHead %d", n, head, db.FiringHead())
	}
	if len(all) < len(seeded) || !slices.Equal(all[:len(seeded)], seeded) {
		return fmt.Errorf("feed: positions 1..%d are not the recovered logs merged by (AtNs, Part, Seq)", len(seeded))
	}
	logs, next := make([][]store.FiringRecord, db.N()), make([]int, db.N())
	for _, r := range seeded {
		next[r.Part]++
	}
	for p := range logs {
		logs[p], _ = db.Partition(p).Engine().FiringsAfter(0, 0)
	}
	for i, r := range all[len(seeded):] {
		if p := r.Part; p < 0 || p >= len(logs) || next[p] >= len(logs[p]) || logs[p][next[p]] != r {
			return fmt.Errorf("feed: position %d holds %+v, not the next record of its partition's log", len(seeded)+i+1, r)
		}
		next[r.Part]++
	}
	for p := range logs {
		if next[p] != len(logs[p]) {
			return fmt.Errorf("feed: holds %d of partition %d's %d records", next[p], p, len(logs[p]))
		}
		last := uint64(0)
		if n := len(logs[p]); n > 0 {
			last = logs[p][n-1].Seq
		}
		if pos := db.FiringPos(store.FiringRecord{Part: p, Seq: last + 1}); pos != 0 {
			return fmt.Errorf("feed: absent record %d/%d at position %d", p, last+1, pos)
		}
	}
	for i, r := range all {
		if pos := db.FiringPos(r); pos != uint64(i+1) {
			return fmt.Errorf("feed: FiringPos(%d/%d) = %d, want %d", r.Part, r.Seq, pos, i+1)
		}
	}
	for after := 0; after <= len(all); after++ {
		for _, max := range []int{1, 3} {
			got, _ := db.FiringsAfter(uint64(after), max)
			if want := all[after:min(after+max, len(all))]; !slices.Equal(got, want) {
				return fmt.Errorf("feed: FiringsAfter(%d, %d) = %+v, want %+v", after, max, got, want)
			}
		}
	}
	return nil
}

// fire records a firing under its owning partition — actions run only
// on loop goroutines, and the partition is arithmetic over Self.
func (x *mexec) fire(class, trigger string, ctx *engine.ActionCtx) {
	p := part.PartitionOf(ctx.Self, x.sc.Partitions)
	x.fireMu.Lock()
	x.firings[p] = append(x.firings[p], fmt.Sprintf("%s.%s oid=%d on %s", class, trigger, ctx.Self, ctx.EventKind))
	x.fireMu.Unlock()
	x.outcome.fired(trigger, ctx.Self)
}

// applyOutcome folds into partition p's stage (nil: its model) what an
// outcome phase did, field being its counter (tc or ta), unless its veto
// rolled it back (WAL faults, the only ones multipart scripts inject,
// fail the frame it shares).
func (x *mexec) applyOutcome(p int, stage *mStage, ph phaseLog, field string) {
	view, put := func(i int) *objState { return x.slot(p, i) }, func(i int, v *objState) { x.setSlot(p, i, v) }
	n := len(x.model[p])
	if stage != nil {
		view, put = stage.view, stage.put
		for slot := range stage.touched {
			n = max(n, slot+1)
		}
	}
	applyOutcome(view, put, n, ph, field)
}

func (x *mexec) runStep(st MStep) error {
	switch st.Kind {
	case MStepAdvance:
		if err := x.db.Advance(st.Advance); err != nil {
			return fmt.Errorf("advance: %w", err)
		}
		return x.checkErrs()
	case MStepCheckpoint:
		if !x.sc.Persistent {
			return nil
		}
		if err := x.db.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		return nil
	case MStepRelay:
		return x.runRelay(st)
	case MStepFault:
		return x.runFault(st)
	default:
		return x.runTx(st.Part, st.Ops, st.Abort)
	}
}

func (x *mexec) runRelay(st MStep) error {
	dst := x.slot(st.DstPart, st.DstSlot)
	if dst == nil || !dst.alive {
		return nil
	}
	var args []value.Value
	if st.HasArg {
		args = append(args, value.Int(st.Arg))
	}
	x.outcome.take()
	x.db.RelayCall(st.Src, dst.oid, st.Method, args...)
	x.db.Drain()
	if errs := x.db.RelayErrors(); len(errs) > x.relayErrSeen {
		return fmt.Errorf("relayed call failed: %v", errs[x.relayErrSeen:])
	}
	ns := dst.clone()
	classDefs[ns.class].apply(ns.fields, st.Method, st.Arg)
	x.setSlot(st.DstPart, st.DstSlot, ns)
	commit, _ := x.outcome.take()
	x.applyOutcome(st.DstPart, nil, commit, "tc")
	return x.checkErrs()
}

// runTx executes one partition-local transaction inside the owning
// loop, mirroring the single-engine executor's stage/commit protocol.
func (x *mexec) runTx(p int, ops []Op, abort bool) error {
	stage := &mStage{x: x, part: p, touched: map[int]*objState{}}
	x.outcome.take()
	var (
		opFail    error // unexpected op error
		commitErr error // Commit's error (nil on clean paths)
		aborted   bool
	)
	doErr := x.db.Do(p, func(e *engine.Engine) error {
		tx := e.Begin()
		for _, op := range ops {
			err := applyOpTx(tx, stage.view, stage.put, op)
			if err == nil {
				continue
			}
			if aborts(err) {
				if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, txn.ErrNotActive) {
					opFail = fmt.Errorf("abort after %v: %w", err, aerr)
				}
				aborted = true
				return nil
			}
			opFail = fmt.Errorf("op %s: %w", op, err)
			if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, txn.ErrNotActive) {
				opFail = fmt.Errorf("%v (abort also failed: %v)", opFail, aerr)
			}
			return nil
		}
		if abort {
			if err := tx.Abort(); err != nil {
				opFail = fmt.Errorf("scripted abort: %w", err)
			}
			aborted = true
			return nil
		}
		commitErr = tx.Commit()
		return nil
	})
	if doErr != nil {
		return doErr
	}
	if opFail != nil {
		return opFail
	}
	// An abort's outcome phase commits with it: WholeA's ta joins the model.
	commit, ab := x.outcome.take()
	if aborted {
		x.applyOutcome(p, nil, ab, "ta")
		return x.checkErrs()
	}
	x.applyOutcome(p, stage, commit, "tc")
	switch fe := walFault(commitErr); {
	case commitErr == nil:
		stage.commit()
		return x.checkErrs()
	case fe != nil:
		return x.crashCycle(p, stage, fe)
	case aborts(commitErr):
		x.applyOutcome(p, nil, ab, "ta")
		return x.checkErrs()
	default:
		return fmt.Errorf("commit on partition %d: %w", p, commitErr)
	}
}

func (x *mexec) runFault(st MStep) error {
	reg := x.regs[st.Part]
	switch st.Fault.Point {
	case fault.WALWrite, fault.WALSync, fault.WALAfterSync:
		if !x.sc.Persistent {
			return fmt.Errorf("WAL fault point %v in a volatile script", st.Fault.Point)
		}
		if st.Fault.Tear >= 0 {
			reg.ArmNextTear(st.Fault.Point, st.Fault.Tear)
		} else {
			reg.ArmNext(st.Fault.Point)
		}
	default:
		return fmt.Errorf("fault point %v not supported on partitions", st.Fault.Point)
	}
	err := x.runTx(st.Part, st.Ops, false)
	// Fail-stop modeling: a plan must not survive its fault step (the
	// victim may have aborted before reaching the WAL).
	if reg.Armed() > 0 {
		reg.Disarm()
	}
	return err
}

// crashCycle simulates a whole-process crash at an injected WAL fault
// on partition p: the part.DB is torn down and reopened, every
// partition recovering independently from its own WAL. Partition p's
// pending transaction is reconciled post/pre; all other partitions
// must recover to exactly their committed ledger state.
func (x *mexec) crashCycle(p int, stage *mStage, fe *fault.Error) error {
	now := x.db.Now()
	if err := x.drain(); err != nil {
		return fmt.Errorf("trace before the crash at %v: %w", fe, err)
	}
	x.db.Close()
	for _, chk := range x.chks {
		chk.Crash()
	}
	for _, reg := range x.regs {
		reg.Disarm()
	}
	x.crashes++
	if err := x.open(now); err != nil {
		return fmt.Errorf("recovery open after %v: %w", fe, err)
	}
	if err := x.db.RearmTimers(); err != nil {
		return fmt.Errorf("rearm timers after recovery: %w", err)
	}
	// Every partition — victim or not — must rebuild its cohort
	// schedule from its own recovered store alone.
	for q := 0; q < x.sc.Partitions; q++ {
		if err := timerScheduleErr(x.db.Partition(q).Engine()); err != nil {
			return fmt.Errorf("rearm reconciliation on partition %d after %v: %w", q, fe, err)
		}
	}
	x.recoveries++
	for q := 0; q < x.sc.Partitions; q++ {
		if rec := x.db.Partition(q).Engine().Store().Recovery(); rec.TornTail {
			x.tornTails++
			if q != p {
				return fmt.Errorf("crash at %v on partition %d tore partition %d's WAL", fe, p, q)
			}
		}
	}

	// Unaffected partitions must hold exactly the committed ledger.
	for q := 0; q < x.sc.Partitions; q++ {
		if q == p {
			continue
		}
		if err := modelStateErr(x.db.Partition(q).Engine().Store(), x.model[q], nil, false); err != nil {
			return fmt.Errorf("partition %d diverged after partition %d's crash at %v: %w", q, p, fe, err)
		}
	}
	// The victim partition reconciles like the single-engine harness.
	victimStore := x.db.Partition(p).Engine().Store()
	postErr := modelStateErr(victimStore, x.model[p], stage.touched, true)
	preErr := modelStateErr(victimStore, x.model[p], stage.touched, false)
	post, pre := postErr == nil, preErr == nil
	switch {
	case fe.Point == fault.WALAfterSync && !post:
		return fmt.Errorf("crash after WAL sync lost a durable commit on partition %d: %v", fe.Point, postErr)
	case fe.Point == fault.WALWrite && fe.Tear < 0 && !pre:
		return fmt.Errorf("crash before WAL write surfaced effects on partition %d: %v", p, preErr)
	case post:
		stage.commit()
	case pre:
		// cleanly rolled away
	default:
		return fmt.Errorf("non-atomic recovery on partition %d at %v: not post (%v) and not pre (%v)",
			p, fe, postErr, preErr)
	}

	for q, chk := range x.chks {
		if err := chk.Recover(x.db.Partition(q).Engine().Store()); err != nil {
			return fmt.Errorf("trace checker on partition %d after recovery from %v: %w", q, fe, err)
		}
	}
	if err := x.db.CheckOwnership(); err != nil {
		return fmt.Errorf("ownership after recovery from %v: %w", fe, err)
	}
	return x.checkErrs()
}

// drain has every partition's checker read its trace so far, once the
// partitions are idle.
func (x *mexec) drain() error {
	x.db.Drain()
	for p, chk := range x.chks {
		if err := chk.Drain(); err != nil {
			return fmt.Errorf("trace checker, partition %d: %w", p, err)
		}
	}
	return nil
}

// verify drains every partition's trace and checks its stored trigger
// state.
func (x *mexec) verify() error {
	if err := x.drain(); err != nil {
		return err
	}
	for p, chk := range x.chks {
		if err := chk.Verify(x.db.Partition(p).Engine().Store()); err != nil {
			return fmt.Errorf("trace checker, partition %d: %w", p, err)
		}
	}
	return nil
}

// checkErrs drains newly recorded timer and relay errors on every
// partition; any of either fails the run (multipart scripts never arm
// faults outside a victim transaction), except Veto's tabort of a
// commit's outcome phase.
func (x *mexec) checkErrs() error {
	for p := 0; p < x.sc.Partitions; p++ {
		errs := x.db.Partition(p).Engine().TimerErrors()
		for _, err := range errs[x.timerErrSeen[p]:] {
			if !errors.Is(err, engine.ErrTabort) {
				return fmt.Errorf("timer delivery on partition %d: %w", p, err)
			}
		}
		x.timerErrSeen[p] = len(errs)
	}
	if errs := x.db.RelayErrors(); len(errs) > x.relayErrSeen {
		return fmt.Errorf("relay errors: %v", errs[x.relayErrSeen:])
	}
	return nil
}

// fingerprint digests the run's observable behaviour: per-partition
// firing order, the final ledger, crash counters and the canonical
// merged metrics. Two same-seed runs must produce identical strings.
func (x *mexec) fingerprint() string {
	h := sha256.New()
	for p, fs := range x.firings {
		fmt.Fprintf(h, "partition %d:\n", p)
		for _, f := range fs {
			fmt.Fprintln(h, f)
		}
	}
	for p, slots := range x.model {
		for i, v := range slots {
			if v == nil || !v.alive {
				fmt.Fprintf(h, "p%d/o%d: dead\n", p, i)
				continue
			}
			fmt.Fprintf(h, "p%d/o%d: oid=%d class=%s", p, i, v.oid, classDefs[v.class].name)
			for _, fd := range classDefs[v.class].fields {
				fmt.Fprintf(h, " %s=%d", fd.Name, v.fields[fd.Name])
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "crashes=%d recoveries=%d torn=%d\n", x.crashes, x.recoveries, x.tornTails)
	fmt.Fprintf(h, "%+v\n", x.db.Metrics().Canonical())
	return hex.EncodeToString(h.Sum(nil))
}
