package sim

import (
	"testing"

	"ode/internal/fault"
)

// egressScript builds a persistent egress-mode hand script (standard
// init transaction, then the given steps).
func egressScript(steps ...Step) *Script {
	sc := handScript(true, steps...)
	sc.Egress = true
	return sc
}

// TestEgressShort is the CI smoke for the egress harness: a handful of
// seeds through the full persistent + faults + egress mode, each run
// ending in the exactly-once ledger oracle. This joins TestSimShort in
// the sim-short CI job (run under -race).
func TestEgressShort(t *testing.T) {
	base := t.TempDir()
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Defaults(seed)
		cfg.Persistent = true
		cfg.Faults = true
		cfg.Egress = true
		res, err := Run(cfg, base, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.EgressFeed == 0 {
			t.Errorf("seed %d: empty egress feed — workload too weak to test delivery", seed)
		}
		if res.EgressEffects != res.EgressFeed {
			t.Errorf("seed %d: %d effects for %d feed records", seed, res.EgressEffects, res.EgressFeed)
		}
		if res.EgressDelivered < uint64(res.EgressFeed) {
			t.Errorf("seed %d: delivered %d < feed %d", seed, res.EgressDelivered, res.EgressFeed)
		}
	}
}

// TestEgressDeterminism: the same egress script executed twice yields
// bit-identical fingerprints — the fingerprint includes the feed
// length, ledger size and delivery churn, so crash/retry/resume
// scheduling is pinned too.
func TestEgressDeterminism(t *testing.T) {
	cfg := Defaults(42)
	cfg.Steps = 60
	cfg.Persistent = true
	cfg.Faults = true
	cfg.Egress = true
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
		t.Fatalf("same script, different runs:\n a=%s (feed %d, redelivered %d)\n b=%s (feed %d, redelivered %d)",
			a.Fingerprint, a.EgressFeed, a.EgressRedelivered,
			b.Fingerprint, b.EgressFeed, b.EgressRedelivered)
	}
	if a.EgressFeed == 0 {
		t.Error("determinism check is vacuous: empty feed")
	}
}

// --- per-fault-point contracts ---------------------------------------------

// TestEgressFaultAppend: the append fault fires inside the victim's
// LogCommit before anything reaches the WAL. The executor's contracts
// require a crash cycle whose recovery lands pre with zero feed
// extras; the test pins that the cycle actually happened and the
// ledger still balanced.
func TestEgressFaultAppend(t *testing.T) {
	sc := egressScript(
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{wdr(0, 60)},
			Fault: FaultSpec{Point: fault.EgressAppend, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 70)}},
	)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("want 1 crash+recovery, got %d/%d", res.Crashes, res.Recoveries)
	}
	if res.InjectedFaults == 0 {
		t.Fatal("append fault never fired")
	}
	if res.EgressEffects != res.EgressFeed {
		t.Fatalf("ledger unbalanced: %d effects, %d feed records", res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressFaultCursorTear: a torn cursor save is survivable (the
// delivery itself succeeded), and after the consumer crashes the
// resumed deliverer must discard the torn tail, restart from the last
// intact entry, and redeliver — absorbed by the ledger dedupe.
func TestEgressFaultCursorTear(t *testing.T) {
	// Keep only Masked active on slot 0 so the victim commits exactly
	// one feed record: its torn cursor save is then the last write
	// before the consumer crash, and the resumed deliverer must
	// discard it and redeliver.
	var deacts []Op
	for _, tr := range []string{"Seq", "Rel", "Cnt", "Chz", "Neg", "FaW", "Deep", "Lim", "AbortBig", "Timer", "Beat", "FaC", "WholeC", "Veto"} {
		deacts = append(deacts, Op{Kind: OpDeactivate, Obj: 0, Trigger: tr})
	}
	sc := egressScript(
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepTx, Ops: deacts},
		Step{Kind: StepFault, Ops: []Op{wdr(0, 60)},
			Fault: FaultSpec{Point: fault.EgressCursor, Tear: 3}},
		Step{Kind: StepTx, Ops: []Op{{Kind: OpCrashDeliverer}}},
		Step{Kind: StepTx, Ops: []Op{{Kind: OpResumeConsumer}}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 70)}},
	)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.EgressCursorErrs == 0 {
		t.Fatal("cursor fault never fired")
	}
	if res.DelivererCrashes != 1 || res.DelivererResumes == 0 {
		t.Fatalf("want 1 deliverer crash and a resume, got %d/%d", res.DelivererCrashes, res.DelivererResumes)
	}
	if res.EgressRedelivered == 0 {
		t.Fatal("resume from a stale cursor should have redelivered")
	}
	if res.EgressEffects != res.EgressFeed {
		t.Fatalf("ledger unbalanced: %d effects, %d feed records", res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressFaultDeliverRetry: two consecutive send failures stay
// within the four bounded attempts — delivery succeeds inside the
// pass, no stall.
func TestEgressFaultDeliverRetry(t *testing.T) {
	sc := egressScript(
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{wdr(0, 60)},
			Fault: FaultSpec{Point: fault.EgressDeliver, Tear: -1, Delay: 1}},
	)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedFaults < 2 {
		t.Fatalf("want 2 injected send failures, got %d", res.InjectedFaults)
	}
	if res.EgressGaveUp != 0 {
		t.Fatalf("retries within the bound must not give up, got %d", res.EgressGaveUp)
	}
	if res.EgressEffects != res.EgressFeed || res.EgressFeed == 0 {
		t.Fatalf("ledger unbalanced: %d effects, %d feed records", res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressFaultDeliverGaveUp: failing more sends than MaxAttempts
// makes the pass give up and stall at the record — never skip — and a
// later pump (faults disarmed) delivers it.
func TestEgressFaultDeliverGaveUp(t *testing.T) {
	sc := egressScript(
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{wdr(0, 60)},
			Fault: FaultSpec{Point: fault.EgressDeliver, Tear: -1, Delay: 5}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 70)}},
	)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.EgressGaveUp == 0 {
		t.Fatal("deliver fault should have exhausted the bounded retries")
	}
	if res.EgressEffects != res.EgressFeed || res.EgressFeed == 0 {
		t.Fatalf("stall must not lose the record: %d effects, %d feed records",
			res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressEngineCrashResume: a WAL crash after durability kills the
// engine incarnation and the deliverer with it; recovery may surface
// the victim's feed records as tail extras, and the rebuilt deliverer
// must resume from its durable cursor and deliver them exactly once.
func TestEgressEngineCrashResume(t *testing.T) {
	sc := egressScript(
		Step{Kind: StepTx, Ops: []Op{dep(0, 100)}},
		Step{Kind: StepFault, Ops: []Op{wdr(0, 60)},
			Fault: FaultSpec{Point: fault.WALAfterSync, Tear: -1}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 70)}},
	)
	res, err := ExecuteTemp(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("want 1 crash, got %d", res.Crashes)
	}
	if res.DelivererResumes == 0 {
		t.Fatal("engine crash must rebuild the deliverer")
	}
	if res.EgressEffects != res.EgressFeed || res.EgressFeed == 0 {
		t.Fatalf("ledger unbalanced: %d effects, %d feed records", res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressVolatile: egress mode without a WAL — deliverer crashes
// lose the in-memory cursor entirely, so resumes redeliver from the
// beginning of the feed and the ledger dedupe absorbs all of it.
func TestEgressVolatile(t *testing.T) {
	sc := handScript(false,
		Step{Kind: StepTx, Ops: []Op{wdr(0, 60)}},
		Step{Kind: StepTx, Ops: []Op{{Kind: OpCrashDeliverer}}},
		Step{Kind: StepTx, Ops: []Op{wdr(0, 70)}},
		Step{Kind: StepTx, Ops: []Op{{Kind: OpResumeConsumer}}},
	)
	sc.Egress = true
	res, err := ExecuteTemp(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.EgressRedelivered == 0 {
		t.Fatal("cursorless resume should have redelivered the whole feed")
	}
	if res.EgressEffects != res.EgressFeed || res.EgressFeed == 0 {
		t.Fatalf("ledger unbalanced: %d effects, %d feed records", res.EgressEffects, res.EgressFeed)
	}
}

// TestEgressStepsGenerated pins that egress campaigns actually cover
// all three egress fault points and both deliverer lifecycle ops
// (guards against the generator silently dropping them).
func TestEgressStepsGenerated(t *testing.T) {
	points := map[fault.Point]int{}
	ops := map[OpKind]int{}
	for seed := int64(0); seed < 20; seed++ {
		cfg := Defaults(seed)
		cfg.Persistent = true
		cfg.Faults = true
		cfg.Egress = true
		cfg.Steps = 60
		for _, st := range Generate(cfg).Steps {
			if st.Kind == StepFault {
				points[st.Fault.Point]++
			}
			for _, op := range st.Ops {
				if op.Kind == OpCrashDeliverer || op.Kind == OpResumeConsumer {
					ops[op.Kind]++
				}
			}
		}
	}
	for _, p := range []fault.Point{fault.EgressAppend, fault.EgressCursor, fault.EgressDeliver} {
		if points[p] == 0 {
			t.Errorf("generated campaigns never arm %v: %v", p, points)
		}
	}
	if ops[OpCrashDeliverer] == 0 || ops[OpResumeConsumer] == 0 {
		t.Errorf("generated campaigns never crash/resume the deliverer: %v", ops)
	}
}

// TestEgressTorture is the seeded exactly-once campaign: many
// generated runs through the full persistent + faults + egress mode,
// each crashing the engine and/or the deliverer at the new fault
// points, each ending in the ledger oracle. Every iteration that
// passes has proven zero duplicate and zero lost effects for its
// schedule. The full (non -short) run covers 1000 seeds.
func TestEgressTorture(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 60
	}
	cfg := Defaults(0)
	cfg.Persistent = true
	cfg.Faults = true
	cfg.Egress = true
	cfg.Steps = 25
	sum, fails := Torture(TortureOpts{Iters: iters, Seed: 7000, Cfg: cfg, Base: t.TempDir(), MaxFailures: 3})
	for _, f := range fails {
		t.Errorf("seed %d: %v", f.Seed, f.Err)
	}
	if sum.Failures != 0 {
		t.Fatalf("campaign failed: %+v", sum)
	}
	if sum.EgressEffects == 0 || sum.Crashes == 0 || sum.DelivererCrashes == 0 {
		t.Fatalf("campaign too weak to prove anything: %+v", sum)
	}
	t.Logf("%d iters: %d effects, %d redelivered, %d gave-up stalls, %d engine crashes, %d deliverer crashes",
		sum.Iters, sum.EgressEffects, sum.Redelivered, sum.GaveUp, sum.Crashes, sum.DelivererCrashes)
}
