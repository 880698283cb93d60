// Benchmarks backing the experiment suite in EXPERIMENTS.md. Each
// experiment id (E1..E9) of DESIGN.md §5 has a corresponding bench
// here (`make bench` runs them all); the paper's expressions are in
// paper_test.go.
package ode_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ode"
	"ode/internal/algebra"
	"ode/internal/compile"
	"ode/internal/fa"
)

// E1: cost of recognizing one posted event with the compiled automaton.
func BenchmarkDetectionAutomaton(b *testing.B) {
	paper := paper()
	h := randomHistory(rand.New(rand.NewSource(1)), numPaperSymbols, 4096)
	for i, e := range paper.Exprs {
		d := compile.Compile(e, numPaperSymbols)
		b.Run(paper.Names[i], func(b *testing.B) {
			det := compile.NewDetector(d)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				det.Post(h[n%len(h)])
			}
		})
	}
}

// E1 baseline: re-evaluating the §4 denotational semantics over the
// whole history on every posting, at two fixed history lengths.
func BenchmarkDetectionNaive(b *testing.B) {
	paper := paper()
	rng := rand.New(rand.NewSource(1))
	for _, histLen := range []int{100, 1000} {
		h := randomHistory(rng, numPaperSymbols, histLen)
		for i, e := range paper.Exprs {
			b.Run(fmt.Sprintf("%s/hist%d", paper.Names[i], histLen), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					algebra.Occurs(e, h)
				}
			})
		}
	}
}

// E3: full compilation cost per paper trigger (resolution excluded;
// algebra → minimized DFA).
func BenchmarkCompilePaperTriggers(b *testing.B) {
	paper := paper()
	for i, e := range paper.Exprs {
		b.Run(paper.Names[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				compile.Compile(e, numPaperSymbols)
			}
		})
	}
}

// E4: the §5 mask-disjointness rewrite at k overlapping masks: the
// union of k masked variants of one method, resolved over the class
// alphabet (a 2^k-symbol block) and compiled.
func BenchmarkMaskRewrite(b *testing.B) {
	cls := &ode.Class{
		Name:    "m",
		Fields:  []ode.Field{{Name: "x", Kind: ode.KindInt}},
		Methods: []ode.Method{{Name: "f", Params: []ode.Param{ode.P("q", ode.KindInt)}, Mode: ode.ModeUpdate}},
	}
	for _, k := range []int{2, 4, 8} {
		union := make([]string, k)
		for i := range union {
			union[i] = fmt.Sprintf("after f(q) && q > %d", i*10)
		}
		event := strings.Join(union, " | ")
		b.Run(fmt.Sprintf("masks%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := ode.CompileEvent(cls, event, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5: the §6 pair construction.
func BenchmarkPairConstruction(b *testing.B) {
	paper := paper()
	dfas := make([]*fa.DFA, len(paper.Exprs))
	for i, e := range paper.Exprs {
		dfas[i] = compile.Compile(e, numPaperSymbols)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		compile.PairConstruction(dfas[n%len(dfas)], paperTcommit, paperTabort)
	}
}

// E8: stepping nine separate trigger automata per event versus one
// combined product automaton (footnote 5).
func BenchmarkPerTriggerVsCombined(b *testing.B) {
	paper := paper()
	dfas := make([]*fa.DFA, len(paper.Exprs))
	for i, e := range paper.Exprs {
		dfas[i] = compile.Compile(e, numPaperSymbols)
	}
	h := randomHistory(rand.New(rand.NewSource(2)), numPaperSymbols, 4096)

	b.Run("separate", func(b *testing.B) {
		dets := make([]*compile.Detector, len(dfas))
		for i, d := range dfas {
			dets[i] = compile.NewDetector(d)
		}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sym := h[n%len(h)]
			for _, det := range dets {
				det.Post(sym)
			}
		}
	})
	b.Run("combined", func(b *testing.B) {
		comb := compile.Combine(dfas)
		state := comb.Start
		var sink uint64
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			var fires uint64
			state, fires = comb.Post(state, h[n%len(h)])
			sink |= fires
		}
		_ = sink
	})
}

// End-to-end engine throughput: one method call on an object with
// increasing numbers of active triggers (mask evaluation + automaton
// stepping + transaction machinery included).
func BenchmarkEngineMethodCall(b *testing.B) {
	for _, triggers := range []int{0, 1, 4, 8} {
		b.Run(fmt.Sprintf("triggers%d", triggers), func(b *testing.B) {
			db, err := ode.Open(ode.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			cb := db.NewClass("account").
				Field("balance", ode.KindInt, ode.Int(0)).
				Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
					v, _ := ctx.Get("balance")
					return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+ctx.Arg("n").AsInt()))
				}, ode.P("n", ode.KindInt))
			names := make([]string, triggers)
			for i := 0; i < triggers; i++ {
				names[i] = fmt.Sprintf("T%d", i)
				cb = cb.Trigger(fmt.Sprintf(
					"T%d(): perpetual relative(after deposit(n) && n > %d, after deposit) ==> act", i, i*1000),
					func(*ode.ActionCtx) error { return nil })
			}
			if err := cb.Register(); err != nil {
				b.Fatal(err)
			}
			var acct ode.OID
			if err := db.Transact(func(tx *ode.Tx) error {
				acct, err = tx.NewObject("account", nil)
				if err != nil {
					return err
				}
				for _, nm := range names {
					if err := tx.Activate(acct, nm); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}

			tx := db.Begin()
			defer tx.Abort()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := tx.Call(acct, "deposit", ode.Int(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12: the posting hot path — compiled mask programs, per-kind
// dispatch and dense trigger slots. "nonfiring" is the case that
// matters: a masked happening whose predicate rejects, i.e. pure
// monitoring overhead on every method call.
func BenchmarkEngineHotPath(b *testing.B) {
	for _, scenario := range []struct {
		name    string
		trigger string
	}{
		{"nonfiring", "Big(): perpetual after deposit(n) && n > 1000000 ==> act"},
		{"firing", "Any(): perpetual after deposit(n) && n >= 0 ==> act"},
	} {
		b.Run(scenario.name, func(b *testing.B) {
			db, err := ode.Open(ode.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			err = db.NewClass("account").
				Field("balance", ode.KindInt, ode.Int(0)).
				Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
					v, _ := ctx.Get("balance")
					return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+ctx.Arg("n").AsInt()))
				}, ode.P("n", ode.KindInt)).
				Trigger(scenario.trigger, func(*ode.ActionCtx) error { return nil }).
				Register()
			if err != nil {
				b.Fatal(err)
			}
			var acct ode.OID
			if err := db.Transact(func(tx *ode.Tx) error {
				name := "Big"
				if scenario.name == "firing" {
					name = "Any"
				}
				var err error
				if acct, err = tx.NewObject("account", nil); err != nil {
					return err
				}
				return tx.Activate(acct, name)
			}); err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			defer tx.Abort()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := tx.Call(acct, "deposit", ode.Int(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E11: concurrent posting throughput over disjoint object partitions.
// Each goroutine owns its own objects, so the per-object lock words and
// the object table should let throughput scale with goroutines on a
// multi-core machine (ops are independent end to end). GOMAXPROCS is
// pinned to the goroutine count so "goroutines1" is a true serial
// baseline.
func BenchmarkEngineParallelPosting(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines%d", g), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(g)
			defer runtime.GOMAXPROCS(prev)

			db, err := ode.Open(ode.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			err = db.NewClass("account").
				Field("balance", ode.KindInt, ode.Int(0)).
				Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
					v, _ := ctx.Get("balance")
					return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+ctx.Arg("n").AsInt()))
				}, ode.P("n", ode.KindInt)).
				Trigger("Big(): perpetual relative(after deposit(n) && n > 100, after deposit) ==> act",
					func(*ode.ActionCtx) error { return nil }).
				Register()
			if err != nil {
				b.Fatal(err)
			}

			// One disjoint partition of objects per worker; workers claim
			// partitions with an atomic counter.
			const perWorker = 8
			parts := make([][]ode.OID, g)
			if err := db.Transact(func(tx *ode.Tx) error {
				for w := range parts {
					parts[w] = make([]ode.OID, perWorker)
					for i := range parts[w] {
						oid, err := tx.NewObject("account", nil)
						if err != nil {
							return err
						}
						if err := tx.Activate(oid, "Big"); err != nil {
							return err
						}
						parts[w][i] = oid
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}

			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1)-1) % len(parts)
				part := parts[w]
				tx := db.Begin()
				defer tx.Abort()
				i := 0
				for pb.Next() {
					if _, err := tx.Call(part[i%len(part)], "deposit", ode.Int(int64(i%200))); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// Transaction lifecycle cost: begin + one call + commit-fixpoint +
// commit + after-tcommit system transaction.
func BenchmarkEngineTransaction(b *testing.B) {
	db, err := ode.Open(ode.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	err = db.NewClass("account").
		Field("balance", ode.KindInt, ode.Int(0)).
		Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
			v, _ := ctx.Get("balance")
			return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+1))
		}).
		Trigger("Dep(): perpetual fa(after deposit, after tcommit, after tbegin) ==> act",
			func(*ode.ActionCtx) error { return nil }).
		Register()
	if err != nil {
		b.Fatal(err)
	}
	var acct ode.OID
	db.Transact(func(tx *ode.Tx) error {
		acct, _ = tx.NewObject("account", nil)
		return tx.Activate(acct, "Dep")
	})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := db.Transact(func(tx *ode.Tx) error {
			_, err := tx.Call(acct, "deposit")
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// E7: timer delivery throughput on the virtual clock.
func BenchmarkTimerDelivery(b *testing.B) {
	db, err := ode.Open(ode.Options{Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	err = db.NewClass("mon").
		Field("x", ode.KindInt, ode.Int(0)).
		Update("tick", func(ctx *ode.MethodCtx) (ode.Value, error) { return ode.Null(), nil }).
		Trigger("Every(): perpetual every time(M=1) ==> act",
			func(*ode.ActionCtx) error { return nil }).
		Register()
	if err != nil {
		b.Fatal(err)
	}
	var oid ode.OID
	db.Transact(func(tx *ode.Tx) error {
		oid, _ = tx.NewObject("mon", nil)
		return tx.Activate(oid, "Every")
	})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		db.Clock().Advance(time.Minute) // exactly one delivery
	}
	if errs := db.Engine().TimerErrors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
}

// Observability cost: the same posting hot path with tracing disabled
// (the default), with tracing into a second flight recorder, and the disabled
// path's allocation guarantee. Per-trigger metrics are always on, so
// "disabled" here is the production configuration.
func BenchmarkEngineTracing(b *testing.B) {
	open := func(b *testing.B) (*ode.Database, ode.OID) {
		db, err := ode.Open(ode.Options{})
		if err != nil {
			b.Fatal(err)
		}
		err = db.NewClass("account").
			Field("balance", ode.KindInt, ode.Int(0)).
			Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
				v, _ := ctx.Get("balance")
				return ode.Null(), ctx.Set("balance", ode.Int(v.AsInt()+ctx.Arg("n").AsInt()))
			}, ode.P("n", ode.KindInt)).
			Trigger("Big(): perpetual relative(after deposit(n) && n > 100, after deposit) ==> act",
				func(*ode.ActionCtx) error { return nil }).
			Register()
		if err != nil {
			b.Fatal(err)
		}
		var acct ode.OID
		if err := db.Transact(func(tx *ode.Tx) error {
			var err error
			if acct, err = tx.NewObject("account", nil); err != nil {
				return err
			}
			return tx.Activate(acct, "Big")
		}); err != nil {
			b.Fatal(err)
		}
		return db, acct
	}

	b.Run("disabled", func(b *testing.B) {
		db, acct := open(b)
		defer db.Close()
		tx := db.Begin()
		defer tx.Abort()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := tx.Call(acct, "deposit", ode.Int(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		db, acct := open(b)
		defer db.Close()
		db.EnableTracing(4096)
		tx := db.Begin()
		defer tx.Abort()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := tx.Call(acct, "deposit", ode.Int(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
