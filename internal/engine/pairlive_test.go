package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ode/internal/compile"
	"ode/internal/event"
	"ode/internal/fa"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/txn"
	"ode/internal/value"
)

// TestPairConstructionLiveDifferential runs the paper's §6 Claim on the
// live engine instead of on symbol strings: one committed-view
// expression is detected twice over one generated script —
//
//	(i)  as trigger C, a committed-view slot, whose automaton A sees no
//	     abort event and is put right by the rollback of the record, and
//	(ii) as trigger W, a whole-view slot holding compile.PairConstruction's
//	     A' of the same A, which sees every event, is kept across every
//	     rollback and puts itself right on "after tabort" —
//
// and both must fire at the same history points, whichever way a
// transaction ends: commit, Abort, an action's tabort, an aborted commit
// dependency. The abort events themselves are history points only W has
// ("before tabort" is inside the doomed transaction, "after tabort" is
// where A' re-enters the checkpointed state, and an accepting state fires
// on entry), so W's firings there are left out of the comparison.
func TestPairConstructionLiveDifferential(t *testing.T) {
	// §6's own kind of example — the commit of a transaction that updated
	// the object — then random expressions, until 20 distinct ones with a
	// non-trivial automaton (random sequences are often unsatisfiable)
	// have run.
	expr := "fa(after tbegin, prior(after withdraw, after tcommit), after tcommit)"
	rng := rand.New(rand.NewSource(6))
	seen := map[string]bool{}
	nontrivial, fired := 0, 0
	for seed := int64(0); nontrivial < 21; seed++ {
		for seen[expr] {
			expr = randomPairExpr(rng, 3)
		}
		seen[expr] = true
		states, points := pairLiveRun(t, expr, seed)
		if states[0] < 2 {
			continue
		}
		nontrivial++
		t.Logf("%-90s |A| = %3d  |A'| = %4d  |A|² = %5d  firings %d", expr, states[0], states[1], states[0]*states[0], points)
		if states[1] > states[0]*states[0] {
			t.Errorf("%s: |A'| = %d exceeds |A|² = %d", expr, states[1], states[0]*states[0])
		}
		if points > 0 {
			fired++
		}
	}
	if fired < nontrivial*2/3 {
		t.Fatalf("only %d of %d expressions ever fired: the comparison is vacuous", fired, nontrivial)
	}
}

// randomPairExpr generates a mask-free, time-free committed-view
// expression. It has no negation and no tcomplete atom, so it never
// occurs at "before tcomplete" and the commit fixpoint always quiesces.
func randomPairExpr(rng *rand.Rand, depth int) string {
	atoms := []string{"after deposit", "after withdraw", "before withdraw", "after getBalance", "after tbegin", "after tcommit"}
	if depth == 0 || depth < 3 && rng.Intn(3) == 0 {
		return atoms[rng.Intn(len(atoms))]
	}
	sub := func() string { return randomPairExpr(rng, depth-1) }
	switch rng.Intn(7) {
	case 0:
		return "(" + sub() + " | " + sub() + ")"
	case 1:
		return "(" + sub() + "; " + sub() + ")"
	case 2:
		return "relative(" + sub() + ", " + sub() + ")"
	case 3:
		return "prior(" + sub() + ", " + sub() + ")"
	case 4:
		return fmt.Sprintf("every %d (%s)", 2+rng.Intn(2), sub())
	case 5:
		return fmt.Sprintf("choose %d (%s)", 2+rng.Intn(2), sub())
	default:
		return "fa(" + sub() + ", " + sub() + ", " + sub() + ")"
	}
}

// pairLiveRun detects expr both ways over one script generated from
// seed and fails the test where the firing points differ. It returns
// |A|, |A'| and the number of firing points.
func pairLiveRun(t *testing.T, expr string, seed int64) (states [2]int, points int) {
	t.Helper()
	cls, impl := accountClass(&recorder{},
		schema.Trigger{Name: "C", Perpetual: true, Event: expr},
		schema.Trigger{Name: "W", Perpetual: true, Event: expr, View: schema.WholeView},
		schema.Trigger{Name: "Bomb", Perpetual: true, Event: "after withdraw(n) && n > 900"})
	e := newEngine(t, Options{})
	var firedC, firedW []string
	// A firing's history point: the object, the happening's ordinal in
	// the engine (published before any action of its step runs) and kind.
	point := func(ctx *ActionCtx) string {
		return fmt.Sprintf("%d #%d %s", ctx.Self, e.Stats().Happenings, ctx.EventKind)
	}
	impl.Actions["C"] = func(ctx *ActionCtx) error { firedC = append(firedC, point(ctx)); return nil }
	impl.Actions["W"] = func(ctx *ActionCtx) error {
		if !strings.HasSuffix(ctx.EventKind, "tabort") {
			firedW = append(firedW, point(ctx))
		}
		return nil
	}
	impl.Actions["Bomb"] = func(*ActionCtx) error { return ErrTabort }
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}

	// Install A' on W's slot. The class registered W as a whole-view
	// trigger, so the slot is kept across rollbacks and the tabort kinds
	// are dispatched to it; only its table and its relevance (computed for
	// A, which ignores what A' must see) are replaced.
	alpha := c.Res.Alphabet
	sym := func(k event.Class) int {
		return alpha.Symbol(alpha.KindIndex(event.Kind{Phase: event.After, Class: k}), 0)
	}
	a := c.Trigger("C").Oracle()
	ap := compile.PairConstruction(a, sym(event.KTcommit), sym(event.KTabort))
	w := c.Trigger("W")
	w.Auto = &compile.Shared{Tab: &compile.Table{Compact: fa.Compress(ap)}, SymMap: make([]uint16, alpha.NumSymbols)}
	for s := range w.Auto.SymMap {
		w.Auto.SymMap[s] = uint16(s)
	}
	for k := range w.relevant {
		w.relevant[k] = true
	}
	if err := e.buildPhases(c); err != nil {
		t.Fatal(err)
	}

	oids := make([]store.OID, 3)
	if err := e.Transact(func(tx *Tx) error {
		for i := range oids {
			var err error
			if oids[i], err = tx.NewObject("account", map[string]value.Value{"balance": value.Int(1 << 40)}); err != nil {
				return err
			}
			for _, name := range []string{"C", "W", "Bomb"} {
				if err := tx.Activate(oids[i], name); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	ops := func(tx *Tx, oid store.OID) {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			var err error
			switch rng.Intn(3) {
			case 0:
				_, err = tx.Call(oid, "deposit", value.Int(1))
			case 1:
				_, err = tx.Call(oid, "withdraw", value.Int(1))
			default:
				_, err = tx.Call(oid, "getBalance")
			}
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
		}
	}
	const steps = 150
	aborts := 0
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(oids))
		oid, other := oids[i], oids[(i+1+rng.Intn(len(oids)-1))%len(oids)]
		tx := e.Begin()
		ops(tx, oid)
		var err, want error
		switch r := rng.Intn(100); {
		case r < 55:
			if rng.Intn(3) == 0 {
				ops(tx, other)
			}
			err = tx.Commit()
		case r < 72:
			aborts++
			err = tx.Abort()
		case r < 86:
			aborts++
			want = ErrTabort
			_, err = tx.Call(oid, "withdraw", value.Int(950))
		default:
			aborts += 2
			want = txn.ErrDependencyAborted
			t2 := e.Begin()
			ops(t2, other)
			t2.DependOn(tx)
			if err = tx.Abort(); err == nil {
				err = t2.Commit()
			}
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s: step %d ended with %v, want %v", expr, step, err, want)
		}
		if !slices.Equal(firedC, firedW) {
			t.Fatalf("%s: after step %d the record-rollback run and the A' run fired at different points:\n committed view: %v\n A' whole view:  %v",
				expr, step, tail(firedC), tail(firedW))
		}
	}
	if aborts*4 < steps {
		t.Fatalf("%d aborted transactions over %d steps: under 25 %%", aborts, steps)
	}
	return [2]int{a.NumStates, ap.NumStates}, len(firedC)
}

// tail is the end of a firing log, enough to see where two diverge.
func tail(points []string) []string {
	return points[max(0, len(points)-6):]
}
