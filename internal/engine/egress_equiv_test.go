package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ode/internal/algebra"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// TestFeedProvenanceEquivalence is the feed-vs-provenance cross-check:
// the durable firing feed replayed from seq 0 must describe exactly the
// firings the provenance layer explains. Concretely:
//
//   - the multiset of (trigger, object) firings on the feed equals the
//     multiset the actions observed;
//   - every instance that appears on the feed has an Explain chain
//     ending at an accepting transition, and replaying that chain
//     through the §4 oracle DFA accepts — with the chain's final
//     happening kind matching the instance's latest feed record;
//   - an instance with no feed records must not explain as fired;
//   - the feed survives a restart bit-identically (replaying from seq 0
//     is reproducible), with the head and EgressSeq gauge agreeing.
func TestFeedProvenanceEquivalence(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"},
		schema.Trigger{Name: "Big", Perpetual: true, Event: "after withdraw(amount) && amount > 10"})
	// Re-key the recorder entries by trigger/object so they compare
	// against feed records.
	for name := range impl.Actions {
		n := name
		impl.Actions[n] = func(ctx *ActionCtx) error {
			rec.add(fmt.Sprintf("%s/%d", n, ctx.Self))
			return nil
		}
	}
	e, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	chk := attachChecker(e, 1<<16)
	a := setup(t, e, cls, impl, "Audit", "Big")
	var b store.OID
	err = e.Transact(func(tx *Tx) error {
		var err error
		b, err = tx.NewObject("account", nil)
		if err != nil {
			return err
		}
		return tx.Activate(b, "Big")
	})
	if err != nil {
		t.Fatal(err)
	}

	// Workload: Audit fires once on a (then deactivates); Big fires on
	// both objects, masked out for the small withdrawal on b.
	steps := []func(tx *Tx) error{
		func(tx *Tx) error {
			if _, err := tx.Call(a, "deposit", value.Int(50)); err != nil {
				return err
			}
			_, err := tx.Call(a, "withdraw", value.Int(20))
			return err
		},
		func(tx *Tx) error {
			if _, err := tx.Call(b, "withdraw", value.Int(5)); err != nil { // masked: no firing
				return err
			}
			_, err := tx.Call(b, "withdraw", value.Int(30))
			return err
		},
		func(tx *Tx) error {
			_, err := tx.Call(a, "withdraw", value.Int(99))
			return err
		},
	}
	for i, step := range steps {
		if err := e.Transact(step); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	checkTrace(t, chk, e)

	feed, head := e.FiringsAfter(0, 0)
	if len(feed) == 0 {
		t.Fatal("workload produced an empty feed")
	}

	// Feed sequencing: strictly increasing, head at the last record,
	// stats gauges in agreement.
	for i := 1; i < len(feed); i++ {
		if feed[i].Seq <= feed[i-1].Seq {
			t.Fatalf("feed seq not strictly increasing at %d: %d then %d", i, feed[i-1].Seq, feed[i].Seq)
		}
	}
	if head != feed[len(feed)-1].Seq {
		t.Fatalf("head %d != last record seq %d", head, feed[len(feed)-1].Seq)
	}
	if s := e.Stats(); s.EgressSeq != head || s.EgressAppended != uint64(len(feed)) {
		t.Fatalf("stats EgressSeq=%d EgressAppended=%d, feed has head=%d len=%d",
			s.EgressSeq, s.EgressAppended, head, len(feed))
	}

	// (1) The feed is exactly the firings the actions observed.
	var fromFeed []string
	for _, r := range feed {
		fromFeed = append(fromFeed, fmt.Sprintf("%s/%d", r.Trigger, r.OID))
	}
	fromActions := rec.list()
	sort.Strings(fromFeed)
	sort.Strings(fromActions)
	if fmt.Sprint(fromFeed) != fmt.Sprint(fromActions) {
		t.Fatalf("feed firings %v != action firings %v", fromFeed, fromActions)
	}

	// (2) Every instance on the feed explains as fired, the chain
	// replays through the oracle DFA to acceptance, the §4 semantics
	// agree it is an occurrence, and the chain's accepting step names
	// the same happening kind as the instance's latest feed record.
	latest := map[string]store.FiringRecord{}
	for _, r := range feed {
		latest[fmt.Sprintf("%s/%d", r.Trigger, r.OID)] = r
	}
	for key, last := range latest {
		ex, err := e.Explain(last.Trigger, last.OID)
		if err != nil {
			t.Fatalf("Explain(%s): %v", key, err)
		}
		if !ex.Fired || !ex.Complete {
			t.Fatalf("%s is on the feed but Explain gives fired=%v complete=%v", key, ex.Fired, ex.Complete)
		}
		fin := ex.Steps[len(ex.Steps)-1]
		if !fin.Accepted {
			t.Fatalf("%s: chain does not end at an accepting transition: %+v", key, fin)
		}
		if fin.Kind != last.Kind {
			t.Fatalf("%s: chain fires on %q, latest feed record says %q", key, fin.Kind, last.Kind)
		}
		tr := e.Class(last.Class).Trigger(last.Trigger)
		final := replayChain(t, tr, ex)
		if !tr.Oracle().Accept[final] {
			t.Fatalf("%s: replayed chain ends in non-accepting state %d", key, final)
		}
		syms := make([]int, len(ex.Steps))
		for i, s := range ex.Steps {
			syms[i] = s.Sym
		}
		if !algebra.Occurs(tr.Res.Expr, syms) {
			t.Fatalf("%s: §4 oracle rejects chain %v as an occurrence of %s", key, syms, tr.Res.Name)
		}
	}

	// (3) The converse: b's Audit never fired (never activated there),
	// so it must be absent from the feed and not explain as fired.
	if _, ok := latest[fmt.Sprintf("Audit/%d", b)]; ok {
		t.Fatalf("Audit/%d on the feed but was never activated", b)
	}
	if ex, err := e.Explain("Audit", b); err != nil {
		t.Fatal(err)
	} else if ex.Fired {
		t.Fatalf("Audit/%d explains as fired but has no feed records", b)
	}

	// (4) Replay from seq 0 after a restart: the recovered feed is
	// bit-identical and the head gauge agrees.
	e.Close()
	e2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	feed2, head2 := e2.FiringsAfter(0, 0)
	if head2 != head || len(feed2) != len(feed) {
		t.Fatalf("recovered feed head=%d len=%d, want head=%d len=%d", head2, len(feed2), head, len(feed))
	}
	for i := range feed {
		if feed2[i] != feed[i] {
			t.Fatalf("recovered feed diverged at %d: %+v != %+v", i, feed2[i], feed[i])
		}
	}
}

// TestPublishWithAWaiterAllocatesNothing: the engine's publication
// (flight event, reader wake, sink relay) allocates nothing, with or
// without a reader registered.
func TestPublishWithAWaiterAllocatesNothing(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sp := store.FiringSpan{Lo: 0, Hi: 1, First: 1, Last: 1}
	if a := testing.AllocsPerRun(100, func() { e.egressPublish(sp) }); a != 0 {
		t.Fatalf("egressPublish without a waiter allocates %.1f objects", a)
	}
	wake := make(chan struct{}, 1)
	defer e.NotifyFirings(wake)()
	if a := testing.AllocsPerRun(100, func() { e.egressPublish(sp) }); a != 0 {
		t.Fatalf("egressPublish with a waiter allocates %.1f objects", a)
	}
	select {
	case <-wake:
	default:
		t.Fatal("egressPublish did not wake the registered reader")
	}
}

// TestEgressRecordCarriesItsCount: an egress flight record keeps the
// batch's first and last sequence numbers and its size apart, and
// names no object. The span is the one a burned reservation leaves
// (store's TestFiringSpanMayCrossABurnedGap): four records numbered
// 1..6, so the size is not To−From+1.
func TestEgressRecordCarriesItsCount(t *testing.T) {
	e := newEngine(t, Options{})
	e.egressPublish(store.FiringSpan{Lo: 0, Hi: 4, First: 1, Last: 6})
	evs := e.FlightEvents(1)
	if len(evs) != 1 {
		t.Fatalf("flight events %+v", evs)
	}
	ev := evs[0]
	if ev.Stage != obs.StageEgress || ev.From != 1 || ev.To != 6 || ev.N != 4 || ev.OID != 0 || ev.DurNs != 0 {
		t.Fatalf("egress record %+v, want from 1 to 6, n 4, no object", ev)
	}
	if got := ev.String(); !strings.HasSuffix(got, " egress    n=4 seq=1..6") {
		t.Fatalf("egress record renders as %q", got)
	}
}
