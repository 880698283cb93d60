package sim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ode/internal/fault"
)

// handScript builds a script with the standard init transaction (one
// object per class, all triggers activated) followed by the given
// steps. Slot 0 is an acct, slot 1 a mtr.
func handScript(persistent bool, steps ...Step) *Script {
	sc := &Script{Seed: 1, Persistent: persistent,
		RandTriggers: make([][]RandTrigger, len(classDefs))}
	rng := rand.New(rand.NewSource(1))
	var init []Op
	for ci := range classDefs {
		init = append(init, Op{Kind: OpNew, Obj: ci, Class: ci})
		init = append(init, activateAll(sc, rng, ci, ci)...)
	}
	sc.Steps = append(sc.Steps, Step{Kind: StepTx, Ops: init})
	sc.Steps = append(sc.Steps, steps...)
	return sc
}

func dep(slot int, n int64) Op {
	return Op{Kind: OpCall, Obj: slot, Method: "dep", HasArg: true, Arg: n}
}

func wdr(slot int, n int64) Op {
	return Op{Kind: OpCall, Obj: slot, Method: "wdr", HasArg: true, Arg: n}
}

// TestSimShort is the CI smoke: a handful of seeds through every
// mode — volatile, persistent, persistent with fault injection —
// within a small budget. This is the entry point the sim-short CI job
// runs under -race.
func TestSimShort(t *testing.T) {
	base := t.TempDir()
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Defaults(seed)
		if _, err := Run(cfg, base, true); err != nil {
			t.Fatalf("volatile seed %d: %v", seed, err)
		}
		cfg = Defaults(seed)
		cfg.Persistent = true
		cfg.Faults = true
		res, err := Run(cfg, base, true)
		if err != nil {
			t.Fatalf("persistent seed %d: %v", seed, err)
		}
		if res.Stats.Firings == 0 {
			t.Errorf("seed %d: no trigger fired — workload too weak to test anything", seed)
		}
		if res.Stats.ShadowChecks == 0 {
			t.Errorf("seed %d: shadow oracle never consulted", seed)
		}
	}
}

// TestSimDeterminism executes the same generated script twice and
// requires bit-identical fingerprints (firing log, final state, stats
// and canonical metrics), in both volatile and crashing-persistent
// modes.
func TestSimDeterminism(t *testing.T) {
	for _, mode := range []struct {
		name       string
		persistent bool
		faults     bool
	}{
		{"volatile", false, false},
		{"persistent-faults", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Defaults(99)
			cfg.Steps = 60
			cfg.Persistent = mode.persistent
			cfg.Faults = mode.faults
			sc := Generate(cfg)
			a, err := ExecuteTemp(sc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := ExecuteTemp(sc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("same seed, different runs:\n a=%s (%d firings, %d crashes)\n b=%s (%d firings, %d crashes)",
					a.Fingerprint, len(a.Firings), a.Crashes, b.Fingerprint, len(b.Firings), b.Crashes)
			}
			if mode.faults && a.Crashes == 0 {
				t.Error("fault mode never crashed; determinism check is vacuous")
			}
		})
	}
}

// TestSimOracleSeeds replays the engine against the §4 denotational
// semantics across many randomized seeds: every posting is
// shadow-checked and every instance history is replayed through
// algebra.FiringPoints at the end of each run.
func TestSimOracleSeeds(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 150
	}
	var checks, firings uint64
	// Seeds that fired each trigger whose action aborts a transaction or
	// an abort's outcome phase, or writes in one.
	aborters := map[string]int{".Boom ": 0, ".Again ": 0, ".WholeA ": 0, ".VetoA ": 0}
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{Seed: int64(seed), Steps: 10, Objects: 1, RandTriggers: 2, Depth: 2}
		res, err := Run(cfg, "", false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checks += res.Stats.ShadowChecks
		firings += res.Stats.Firings
		fired := strings.Join(res.Firings, "\n")
		for k := range aborters {
			if strings.Contains(fired, k) {
				aborters[k]++
			}
		}
	}
	if checks == 0 || firings == 0 {
		t.Fatalf("oracle sweep was vacuous: %d shadow checks, %d firings", checks, firings)
	}
	for k, n := range aborters {
		if n == 0 {
			t.Errorf("no seed fired %s", k)
		}
	}
	t.Logf("seeds firing the aborters: %v", aborters)
	t.Logf("%d seeds: %d shadow checks, %d firings", seeds, checks, firings)
}

// --- per-fault-class tests -------------------------------------------------
//
// Each arms exactly one fault class through a handcrafted script and
// requires the harness's recovery contract for it to hold (the
// executor itself asserts PRE/POST atomicity; the tests pin that the
// fault actually fired and the recovery cycle ran).

func runFaultScript(t *testing.T, sc *Script) *Result {
	t.Helper()
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultCrashBeforeCommit: the batch never reaches the log; after
// the simulated crash the victim transaction must have vanished
// without a trace.
func TestFaultCrashBeforeCommit(t *testing.T) {
	sc := handScript(true,
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: fault.WALWrite, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
	)
	res := runFaultScript(t, sc)
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("want 1 crash+recovery, got %d/%d", res.Crashes, res.Recoveries)
	}
	if res.InjectedFaults != 1 {
		t.Fatalf("want exactly 1 injected fault, got %d", res.InjectedFaults)
	}
}

// TestFaultTornWrite: a prefix of the batch reaches the log; recovery
// must detect the torn tail, repair the file, and drop the
// transaction atomically.
func TestFaultTornWrite(t *testing.T) {
	sc := handScript(true,
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: fault.WALWrite, Tear: 9}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
		Step{Kind: StepTx, Ops: []Op{dep(0, 11)}},
	)
	res := runFaultScript(t, sc)
	if res.Crashes != 1 {
		t.Fatalf("want 1 crash, got %d", res.Crashes)
	}
	if res.TornTails != 1 {
		t.Fatalf("want a detected torn tail, got %d", res.TornTails)
	}
}

// TestFaultSyncError: the sync call fails after the bytes were
// written; recovery must land on exactly one side of the commit,
// atomically (in-process simulation makes that the committed side,
// but the contract checked is atomicity).
func TestFaultSyncError(t *testing.T) {
	sc := handScript(true,
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: fault.WALSync, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
	)
	res := runFaultScript(t, sc)
	if res.Crashes != 1 || res.InjectedFaults != 1 {
		t.Fatalf("want 1 crash from 1 injected sync failure, got %d/%d", res.Crashes, res.InjectedFaults)
	}
}

// TestFaultCrashAfterCommit: the batch is durable but the commit was
// never acknowledged; recovery must keep it (no lost updates behind a
// successful sync).
func TestFaultCrashAfterCommit(t *testing.T) {
	sc := handScript(true,
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: fault.WALAfterSync, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
	)
	res := runFaultScript(t, sc)
	if res.Crashes != 1 {
		t.Fatalf("want 1 crash, got %d", res.Crashes)
	}
}

// TestFaultCrashDuringAbortCarry: an abort writes too — one frame with
// what the object's whole-view trigger keeps of the aborted transaction —
// and a crash on either side of that frame's sync is a crash like any
// other: recovery yields all of the frame or none of it, the oracle holds
// (state and shadow are one record), and the next transaction's tbegin
// steps whatever survived.
func TestFaultCrashDuringAbortCarry(t *testing.T) {
	for _, point := range []fault.Point{fault.WALWrite, fault.WALAfterSync} {
		sc := handScript(true,
			Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
			Step{Kind: StepTx, Abort: true, Ops: []Op{wdr(0, 5)}}, // Whole: tabort seen, waits for a tbegin
			Step{Kind: StepFault, Abort: true, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: point, Tear: -1}},
			Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
		)
		res := runFaultScript(t, sc)
		if res.Crashes != 1 || res.Recoveries != 1 || res.InjectedFaults != 1 {
			t.Fatalf("%v: want 1 crash+recovery from 1 injected fault, got %d/%d from %d",
				point, res.Crashes, res.Recoveries, res.InjectedFaults)
		}
		whole := 0
		for _, f := range res.Firings {
			if strings.Contains(f, ".Whole ") {
				whole++
			}
		}
		// At the victim's tbegin, and — from recovered state — at the
		// last transaction's.
		if whole != 2 {
			t.Fatalf("%v: Whole fired %d times, want 2: the abort it had seen was lost (firings %v)", point, whole, res.Firings)
		}
	}
}

// TestFaultCrashAroundAbortFrame: an abort is one WAL frame — what its
// object's whole-view triggers keep of it (Whole's tabort step) with what
// its after-tabort outcome phase did (WholeA's write of ta) — so a crash
// on either side of the frame's sync recovers both or neither. The
// executor holds ta to the side recovery lands on; Whole fires at the
// next tbegin exactly when the carry survived.
func TestFaultCrashAroundAbortFrame(t *testing.T) {
	for _, c := range []struct {
		point fault.Point
		whole int
	}{{fault.WALWrite, 0}, {fault.WALAfterSync, 1}} {
		sc := handScript(true,
			Step{Kind: StepTx, Ops: []Op{dep(0, 50)}}, // bal 1050: VetoA stays quiet
			Step{Kind: StepFault, Abort: true, Ops: []Op{wdr(0, 7)}, Fault: FaultSpec{Point: c.point, Tear: -1}},
			Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
		)
		res := runFaultScript(t, sc)
		if res.Crashes != 1 || res.Recoveries != 1 || res.InjectedFaults != 1 {
			t.Fatalf("%v: want 1 crash+recovery from 1 injected fault, got %d/%d from %d",
				c.point, res.Crashes, res.Recoveries, res.InjectedFaults)
		}
		count := func(trigger string) (n int) {
			for _, f := range res.Firings {
				if strings.Contains(f, "."+trigger+" ") {
					n++
				}
			}
			return n
		}
		if count("WholeA") != 1 {
			t.Fatalf("%v: WholeA fired %d times, want once: the abort's outcome phase did not run (firings %v)", c.point, count("WholeA"), res.Firings)
		}
		if count("Whole") != c.whole {
			t.Fatalf("%v: Whole fired %d times after the crash, want %d (firings %v)", c.point, count("Whole"), c.whole, res.Firings)
		}
	}
}

// TestSimPanicAndRunawayCascade: a deposit whose action panics (Boom) and
// one whose action recurses without end (Again) each abort their
// transaction; the model keeps nothing of them and the script goes on.
func TestSimPanicAndRunawayCascade(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		sc := handScript(persistent,
			Step{Kind: StepTx, Ops: []Op{dep(0, panicArg)}},
			Step{Kind: StepTx, Ops: []Op{dep(0, recurseArg)}},
			Step{Kind: StepTx, Ops: []Op{dep(0, 5), wdr(0, 3)}},
		)
		res, err := ExecuteTemp(sc, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		boom, again := 0, 0
		for _, f := range res.Firings {
			boom += strings.Count(f, ".Boom ")
			again += strings.Count(f, ".Again ")
		}
		if boom != 1 || again < 2 {
			t.Fatalf("persistent %v: Boom fired %d times, Again %d: want 1 and a cascade", persistent, boom, again)
		}
		if res.Stats.TxAborted != 2 {
			t.Fatalf("persistent %v: %d transactions aborted, want 2", persistent, res.Stats.TxAborted)
		}
	}
}

// TestFaultLockTimeout: a lock-acquire failure aborts the requesting
// transaction like a deadlock victim; the engine keeps running, no
// crash cycle, and the transaction's effects are absent.
func TestFaultLockTimeout(t *testing.T) {
	sc := handScript(false,
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{dep(0, 7)}, Fault: FaultSpec{Point: fault.LockAcquire, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 30)}},
	)
	res := runFaultScript(t, sc)
	if res.Crashes != 0 {
		t.Fatalf("lock fault must not crash, got %d crashes", res.Crashes)
	}
	if res.InjectedFaults != 1 {
		t.Fatalf("want 1 injected lock fault, got %d", res.InjectedFaults)
	}
}

// TestFaultStepsGenerated pins that generated fault campaigns
// actually exercise multiple distinct fault classes (guards against
// the generator silently dropping fault steps).
func TestFaultStepsGenerated(t *testing.T) {
	points := map[fault.Point]int{}
	for seed := int64(0); seed < 20; seed++ {
		cfg := Defaults(seed)
		cfg.Persistent = true
		cfg.Faults = true
		cfg.Steps = 60
		for _, st := range Generate(cfg).Steps {
			if st.Kind == StepFault {
				points[st.Fault.Point]++
			}
		}
	}
	if len(points) < 4 {
		t.Fatalf("generated campaigns cover only %d fault classes: %v", len(points), points)
	}
}

// TestMinimize checks the shrinker on a synthetic predicate: the
// "failure" is the presence of one particular op, and minimization
// must strip (nearly) everything else while keeping it.
func TestMinimize(t *testing.T) {
	cfg := Defaults(5)
	cfg.Steps = 40
	sc := Generate(cfg)
	needle := Step{Kind: StepTx, Ops: []Op{wdr(0, 777)}}
	sc.Steps = append(sc.Steps[:20:20], append([]Step{needle}, sc.Steps[20:]...)...)

	hasNeedle := func(c *Script) bool {
		for _, st := range c.Steps {
			for _, op := range st.Ops {
				if op.Kind == OpCall && op.Method == "wdr" && op.Arg == 777 {
					return true
				}
			}
		}
		return false
	}
	min := Minimize(sc, hasNeedle, 500)
	if !hasNeedle(min) {
		t.Fatal("minimizer dropped the failing op")
	}
	var ops int
	for _, st := range min.Steps {
		ops += len(st.Ops)
	}
	if len(min.Steps) > 2 || ops > 2 {
		t.Fatalf("minimizer left %d steps / %d ops:\n%s", len(min.Steps), ops, min.String())
	}
}

// TestScriptString smoke-tests the reproduction rendering.
func TestScriptString(t *testing.T) {
	cfg := Defaults(3)
	cfg.Persistent = true
	cfg.Faults = true
	s := Generate(cfg).String()
	if len(s) == 0 {
		t.Fatal("empty script rendering")
	}
}

// TestTortureSmoke runs a miniature campaign through the Torture
// entry point (cmd/odesim calls this).
func TestTortureSmoke(t *testing.T) {
	cfg := Defaults(0)
	cfg.Persistent = true
	cfg.Faults = true
	cfg.Steps = 20
	sum, fails := Torture(TortureOpts{Iters: 5, Seed: 300, Cfg: cfg, Base: t.TempDir()})
	for _, f := range fails {
		t.Errorf("seed %d: %v", f.Seed, f.Err)
	}
	if sum.Iters != 5 || sum.Failures != 0 {
		t.Fatalf("summary: %+v", sum)
	}
}

// TestSimFlightDump: every run counts its flight-recorder events (at
// least the begin record of every user and system transaction, across
// crash incarnations), and a Failure built mid-run carries the
// recorder's recent events — the pre-crash capture when one exists, the
// live engine's otherwise.
func TestSimFlightDump(t *testing.T) {
	cfg := Defaults(7)
	cfg.Persistent = true
	cfg.Faults = true
	cfg.Steps = 30
	sc := Generate(cfg)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if begun := res.Stats.TxBegun + res.Stats.SystemTx; res.Stats.FlightEvents < begun || begun == 0 {
		t.Fatalf("flight events %d < transactions begun %d (user and system)", res.Stats.FlightEvents, begun)
	}

	x := &exec{sc: sc, dir: t.TempDir(), reg: fault.New()}
	if err := x.open(time.Time{}); err != nil {
		t.Fatal(err)
	}
	defer x.eng.Close()
	for i, st := range sc.Steps {
		if err := x.runStep(st); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	live := x.failFlight()
	if len(live) == 0 {
		t.Fatal("failure dump empty after a worked script")
	}
	// A saved pre-crash capture must win over the live recorder.
	x.flight = live[:1]
	if got := x.failFlight(); len(got) != 1 {
		t.Fatalf("pre-crash capture not preferred: got %d events", len(got))
	}
}
