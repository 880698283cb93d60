package ode_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"ode/internal/algebra"
	"ode/internal/compile"
	"ode/internal/fa"
)

// The composite events of the paper's running examples over an abstract
// alphabet, shared by the oracle test below and the E1/E3/E5/E8
// benchmarks in bench_test.go. The symbol legend:
//
//	0 after deposit      1 before withdraw   2 after withdraw-large
//	3 after withdraw     4 after access      5 after tbegin
//	6 before tcomplete   7 after tcommit     8 after tabort
//	9 dayBegin (timer)  10 dayEnd (timer)   11 after update
const (
	numPaperSymbols = 12
	paperTcommit    = 7
	paperTabort     = 8
)

type paperExprs struct {
	Names []string
	Exprs []*algebra.Expr
}

// paper builds the stockRoom trigger set T1–T8 (§3.5) plus the §3.4
// transaction-commit example, as algebra expressions.
func paper() paperExprs {
	const (
		deposit = iota
		beforeWithdraw
		withdrawLarge
		withdraw
		access
		tbegin
		tcomplete
		tcommit
		tabort
		dayBegin
		dayEnd
		update
	)
	a := algebra.Atom
	anyWithdraw := algebra.Or(a(withdrawLarge), a(withdraw))
	return paperExprs{
		Names: []string{
			"T1 before-withdraw-unauth",
			"T2 withdraw-below-reorder",
			"T3 dayEnd",
			"T4 fifth-commit-of-day",
			"T5 every-5-access",
			"T6 large-withdrawal",
			"T7 fifth-large-wdr-of-day",
			"T8 deposit-then-withdraw",
			"S4 commit-after-update",
		},
		Exprs: []*algebra.Expr{
			a(beforeWithdraw),
			anyWithdraw,
			a(dayEnd),
			algebra.Relative(a(dayBegin),
				algebra.And(
					algebra.Prior(algebra.Choose(a(tcommit), 5), a(tcommit)),
					algebra.Not(algebra.Prior(a(dayBegin), a(tcommit))),
				)),
			algebra.Every(a(access), 5),
			a(withdrawLarge),
			algebra.Fa(a(dayBegin), algebra.Choose(a(withdrawLarge), 5), a(dayBegin)),
			algebra.SequenceList(a(deposit), a(beforeWithdraw), anyWithdraw),
			algebra.Fa(a(tbegin),
				algebra.Prior(a(update), a(tcommit)),
				algebra.Or(a(tcommit), a(tabort))),
		},
	}
}

// randomHistory returns a uniform random symbol sequence.
func randomHistory(rng *rand.Rand, numSymbols, length int) []int {
	h := make([]int, length)
	for i := range h {
		h[i] = rng.Intn(numSymbols)
	}
	return h
}

// TestPaperExprsAgreeWithOracle: each of the paper's triggers, compiled
// to its minimized automaton, signals exactly at the history points the
// §4 denotational semantics says it occurs.
func TestPaperExprsAgreeWithOracle(t *testing.T) {
	p := paper()
	if len(p.Exprs) != len(p.Names) {
		t.Fatal("names/exprs mismatch")
	}
	rng := rand.New(rand.NewSource(3))
	for i, e := range p.Exprs {
		d := compile.Compile(e, numPaperSymbols)
		for iter := 0; iter < 20; iter++ {
			h := randomHistory(rng, numPaperSymbols, 1+rng.Intn(12))
			want := algebra.Eval(e, h)
			det := compile.NewDetector(d)
			for at, sym := range h {
				if got := det.Post(sym); got != want[at] {
					t.Fatalf("%s: point %d of %v: automaton %v, oracle %v", p.Names[i], at, h, got, want[at])
				}
			}
		}
	}
}

// TestPaperPairConstructionBound: the §6 pair construction over the
// paper's triggers stays within the Claim's squaring bound, |A'| ≤ |A|²
// (E5 on the paper's own set).
func TestPaperPairConstructionBound(t *testing.T) {
	p := paper()
	for i, e := range p.Exprs {
		a := compile.Compile(e, numPaperSymbols)
		ap := compile.PairConstruction(a, paperTcommit, paperTabort)
		if ap.NumStates > a.NumStates*a.NumStates {
			t.Errorf("%s: |A'| = %d exceeds |A|² = %d", p.Names[i], ap.NumStates, a.NumStates*a.NumStates)
		}
	}
}

// TestPaperTableSizes: each of the paper's triggers compiles over the
// full 12-symbol alphabet to a transition table of one 8-byte cell per
// state and symbol (E3 on the paper's own set).
func TestPaperTableSizes(t *testing.T) {
	p := paper()
	for i, e := range p.Exprs {
		d := compile.Compile(e, numPaperSymbols)
		if bytes := len(d.Trans) * int(unsafe.Sizeof(d.Trans[0])); d.NumStates < 1 ||
			d.NumSymbols != numPaperSymbols || bytes != d.NumStates*d.NumSymbols*8 {
			t.Fatalf("%s: %d states × %d symbols in a %d-byte table", p.Names[i], d.NumStates, d.NumSymbols, bytes)
		}
	}
}

// TestPaperCombinedMatchesIndividuals: the product automaton of all the
// paper's triggers signals, bit by bit, exactly where each trigger's own
// automaton does (E8 on the paper's own set).
func TestPaperCombinedMatchesIndividuals(t *testing.T) {
	p := paper()
	dfas := make([]*fa.DFA, len(p.Exprs))
	for i, e := range p.Exprs {
		dfas[i] = compile.Compile(e, numPaperSymbols)
	}
	comb := compile.Combine(dfas)
	if comb.Triggers != len(p.Exprs) || comb.NumStates < 2 {
		t.Fatalf("combined automaton: %d triggers, %d states", comb.Triggers, comb.NumStates)
	}
	dets := make([]*compile.Detector, len(dfas))
	for i, d := range dfas {
		dets[i] = compile.NewDetector(d)
	}
	state := comb.Start
	for at, sym := range randomHistory(rand.New(rand.NewSource(7)), numPaperSymbols, 5000) {
		var fires uint64
		state, fires = comb.Post(state, sym)
		for i, det := range dets {
			if want := det.Post(sym); (fires>>i)&1 == 1 != want {
				t.Fatalf("%s: point %d: combined %v, own automaton %v", p.Names[i], at, !want, want)
			}
		}
	}
}

// TestPaperAblationSameFinalAutomata: compiling the paper's triggers
// without minimizing at every operator node yields the same final
// automata, equal in language and in size (E9 on the paper's own set).
func TestPaperAblationSameFinalAutomata(t *testing.T) {
	p := paper()
	for i, e := range p.Exprs {
		with := compile.Compile(e, numPaperSymbols)
		without := compile.CompileNoIntermediateMin(e, numPaperSymbols)
		if !fa.Equivalent(with, without) || with.NumStates != without.NumStates {
			t.Fatalf("%s: %d states with per-node minimization, %d without (equivalent %v)",
				p.Names[i], with.NumStates, without.NumStates, fa.Equivalent(with, without))
		}
	}
}
