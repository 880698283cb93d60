package sim

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"ode/internal/egress"
	"ode/internal/fault"
	"ode/internal/store"
)

// The egress side of the harness (Script.Egress): alongside the engine
// the executor runs a cursor-backed Deliverer whose Sender is a ledger
// receiver — a model of an idempotent downstream system that applies
// each firing's effect exactly once, keyed by the idempotency key.
// Deliveries are pumped deterministically after every step; faults at
// EgressAppend, EgressCursor and EgressDeliver, simulated engine
// crashes and scripted deliverer crashes (OpCrashDeliverer /
// OpResumeConsumer) perturb the pipeline, and the end-of-run oracle
// requires the ledger to hold exactly one effect per record of the
// final durable feed — no duplicates, no losses, no phantoms — with
// every redelivery absorbed by the key dedupe.

// recFingerprint is the receiver-side identity of a record's content.
// Two deliveries under the same idempotency key must carry identical
// fingerprints; anything else is a key collision and fails the run.
func recFingerprint(rec store.FiringRecord) string {
	return fmt.Sprintf("p%d/s%d %s.%s@%d %s tx=%d at=%d",
		rec.Part, rec.Seq, rec.Class, rec.Trigger, rec.OID, rec.Kind, rec.TxID, rec.AtNs)
}

// receive is the ledger receiver: the Sender behind the simulated
// deliverer. First delivery of a key applies the effect; redeliveries
// with identical content are absorbed (counted); diverging content
// under one key is recorded as a collision failure.
func (x *exec) receive(rec store.FiringRecord, key string) error {
	fp := recFingerprint(rec)
	if old, ok := x.effects[key]; ok {
		if old != fp && x.egressErr == nil {
			x.egressErr = fmt.Errorf("idempotency-key collision: %s maps to %q and %q", key, old, fp)
		}
		x.redelivered++
		return nil
	}
	x.effects[key] = fp
	return nil
}

// openDeliverer builds a deliverer over the current engine
// incarnation. Persistent scripts resume from the durable cursor file
// (shared across incarnations, like the store directory); volatile
// ones restart from the beginning of the feed and rely on the ledger
// dedupe.
func (x *exec) openDeliverer() error {
	if x.effects == nil {
		x.effects = map[string]string{}
	}
	var cur *egress.Cursor
	if x.sc.Persistent {
		c, err := egress.OpenCursor(filepath.Join(x.dir, "sim-cursor"), x.reg)
		if err != nil {
			return err
		}
		cur = c
	}
	x.delvCursor = cur
	x.delv = egress.NewDeliverer(x.eng, egress.SenderFunc(x.receive), egress.DelivererOptions{
		Cursor: cur,
		Sleep:  func(time.Duration) {}, // virtual backoff: keep runs deterministic
		Faults: x.reg,
	})
	return nil
}

// teardownDeliverer folds the current deliverer's counters into the
// run totals and drops it (the cursor file handle is closed; durable
// cursor state persists). Safe to call repeatedly.
func (x *exec) teardownDeliverer() {
	if x.delv != nil {
		s := x.delv.Stats()
		x.delivered += s.Delivered
		x.gaveUp += s.GaveUp
		x.cursorSaves += s.CursorSaves
		x.cursorErrs += s.CursorErrs
		x.delv = nil
	}
	if x.delvCursor != nil {
		x.delvCursor.Close()
		x.delvCursor = nil
	}
}

// crashDeliverer models the consumer process dying (OpCrashDeliverer):
// no graceful shutdown, in-memory position lost, durable cursor kept.
func (x *exec) crashDeliverer() {
	if !x.sc.Egress || x.delv == nil {
		return
	}
	x.teardownDeliverer()
	x.delvCrashes++
}

// resumeConsumer restarts a crashed deliverer from its durable cursor
// (OpResumeConsumer); running deliverers are left alone.
func (x *exec) resumeConsumer() error {
	if !x.sc.Egress || x.delv != nil {
		return nil
	}
	if err := x.openDeliverer(); err != nil {
		return fmt.Errorf("resume consumer: %w", err)
	}
	x.delvResumes++
	return nil
}

// pollFeed extends the harness's mirror of the durable feed with
// everything newly published. The mirror is the reference for the
// crash-recovery prefix contract (feedRecoveryErr) and the end-of-run
// ledger check.
func (x *exec) pollFeed() {
	if !x.sc.Egress {
		return
	}
	var after uint64
	if n := len(x.feedSeen); n > 0 {
		after = x.feedSeen[n-1].Seq
	}
	recs, _ := x.eng.FiringsAfter(after, 0)
	x.feedSeen = append(x.feedSeen, recs...)
}

// pumpEgress runs after every script step: refresh the feed mirror,
// then drain the deliverer to the head. A delivery pass that exhausts
// its bounded retries on an injected fault stalls (the record stays
// next in line and a later pump retries it); any other delivery error,
// and any receiver-side collision, fails the run.
func (x *exec) pumpEgress() error {
	if !x.sc.Egress {
		return nil
	}
	x.pollFeed()
	if x.delv != nil {
		if _, err := x.delv.Pump(0); err != nil && !errors.Is(err, fault.ErrInjected) {
			return fmt.Errorf("egress pump: %w", err)
		}
	}
	return x.egressErr
}

// feedRecoveryErr checks the recovered feed against the harness mirror
// after a simulated engine crash:
//
//	(A) prefix stability — every record observed on the feed before the
//	    crash must be present, bit-identical, at the same position;
//	(B) extras appear only at the tail, only when recovery landed on
//	    the committed side (post), and only from the victim
//	    transaction or its outcome phase, whose id is drawn after it;
//	    an EgressAppend fault fires before anything reaches the WAL,
//	    so it never adds records.
//
// On success the mirror adopts the recovered feed (tail extras are
// durable commits the crash hid from the live engine).
func (x *exec) feedRecoveryErr(fe *fault.Error, post bool, victimTx uint64) error {
	recovered, _ := x.eng.FiringsAfter(0, 0)
	if len(recovered) < len(x.feedSeen) {
		return fmt.Errorf("recovery lost egress records: feed holds %d, %d were observed (fault %v)",
			len(recovered), len(x.feedSeen), fe)
	}
	for i, want := range x.feedSeen {
		if recovered[i] != want {
			return fmt.Errorf("recovered feed diverged at index %d: got %+v, observed %+v (fault %v)",
				i, recovered[i], want, fe)
		}
	}
	extras := recovered[len(x.feedSeen):]
	switch {
	case fe.Point == fault.EgressAppend && len(extras) > 0:
		return fmt.Errorf("crash at egress append surfaced %d feed records", len(extras))
	case !post && len(extras) > 0:
		return fmt.Errorf("pre-state recovery surfaced %d feed records (fault %v)", len(extras), fe)
	default:
		for _, r := range extras {
			if r.TxID < victimTx {
				return fmt.Errorf("recovered feed extra at seq %d is from tx %d, victim was tx %d (fault %v)",
					r.Seq, r.TxID, victimTx, fe)
			}
		}
	}
	x.feedSeen = recovered
	return nil
}

// egressFinalErr is the end-of-run exactly-once oracle. It disarms any
// leftover fault plans, resumes a crashed consumer, drains the feed,
// and then requires the ledger to hold exactly one effect per record
// of the final durable feed — matching content, no duplicate keys on
// the feed, no phantom effects off it — with the deliverer fully
// caught up.
func (x *exec) egressFinalErr() error {
	if !x.sc.Egress {
		return nil
	}
	x.reg.Disarm()
	if x.delv == nil {
		if err := x.resumeConsumer(); err != nil {
			return err
		}
	}
	x.pollFeed()
	if _, err := x.delv.Pump(0); err != nil {
		return fmt.Errorf("final egress drain: %w", err)
	}
	if x.egressErr != nil {
		return x.egressErr
	}
	if lag := x.delv.Stats().Lag; lag != 0 {
		return fmt.Errorf("deliverer still lags %d positions after the final drain", lag)
	}
	final, head := x.eng.FiringsAfter(0, 0)
	if len(final) != len(x.feedSeen) {
		return fmt.Errorf("feed mirror drift: observed %d records, final feed holds %d (head %d)",
			len(x.feedSeen), len(final), head)
	}
	if s := x.eng.Stats(); s.EgressSeq != head {
		return fmt.Errorf("stats gauge EgressSeq=%d disagrees with feed head %d", s.EgressSeq, head)
	}
	keys := make(map[string]bool, len(final))
	for _, rec := range final {
		key := egress.KeyFor(rec)
		if keys[key] {
			return fmt.Errorf("final feed carries duplicate idempotency key %s (seq %d)", key, rec.Seq)
		}
		keys[key] = true
		fp, ok := x.effects[key]
		if !ok {
			return fmt.Errorf("lost effect: feed seq %d (%s.%s@%d) was never applied",
				rec.Seq, rec.Class, rec.Trigger, rec.OID)
		}
		if fp != recFingerprint(rec) {
			return fmt.Errorf("effect drift at seq %d: applied %q, feed holds %q",
				rec.Seq, fp, recFingerprint(rec))
		}
	}
	for key, fp := range x.effects {
		if !keys[key] {
			return fmt.Errorf("phantom effect %s (%s) is not on the final feed", key, fp)
		}
	}
	return nil
}
