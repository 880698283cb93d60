// Package sim is a seeded, fully deterministic simulation harness for
// the trigger engine. One run is: generate a script from a seed
// (multi-class workload plus scheduled fault injections), execute it
// against a real engine under a virtual clock, and check three
// oracles throughout:
//
//   - the §4 denotational semantics under the §6 history views: the
//     trace checker (internal/oracle, attached by Attach) reads the
//     engine's trace after every operation, keeps each trigger
//     instance's history under its own model of the views, and checks
//     every step — and every point the engine skipped — against
//     algebra.FiringPoints, and the stored trigger states against the
//     replay after every simulated crash and at the end of the run;
//   - a ledger model of object state: committed effects must be
//     exactly present, aborted and crashed-away effects exactly absent,
//     and recovery must be atomic per transaction;
//   - crash-recovery contracts per fault point: a commit acknowledged
//     (or synced) before the crash must survive; a batch that never
//     reached the log must leave no trace; a torn tail must be
//     detected and repaired, never silently extended.
//
// Determinism: all randomness is consumed by Generate; execution is
// single-goroutine; the clock is virtual. Executing the same script
// twice yields bit-identical firing logs, stats and fingerprints,
// which is what makes a printed seed a complete bug report. On
// failure the harness emits the seed plus a minimized reproduction
// script (Minimize).
package sim

import (
	"errors"
	"fmt"
	"os"
)

// ExecuteTemp executes sc, provisioning (and removing) a scratch
// store directory under base when the script is persistent. An empty
// base means the system temp directory.
func ExecuteTemp(sc *Script, base string) (*Result, error) {
	dir := ""
	if sc.Persistent {
		d, err := os.MkdirTemp(base, "odesim-*")
		if err != nil {
			return nil, fmt.Errorf("sim: scratch dir: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	return Execute(sc, dir)
}

// Run generates the script for cfg and executes it. On failure, if
// minimize is set, the script is shrunk while it still fails and the
// returned *Failure carries the minimized reproduction.
func Run(cfg Config, base string, minimize bool) (*Result, error) {
	sc := Generate(cfg)
	res, err := ExecuteTemp(sc, base)
	if err == nil || !minimize {
		return res, err
	}
	var f *Failure
	if !errors.As(err, &f) {
		return nil, err
	}
	min := Minimize(sc, func(c *Script) bool {
		_, e := ExecuteTemp(c, base)
		return e != nil
	}, 200)
	if _, e := ExecuteTemp(min, base); e != nil {
		var mf *Failure
		if errors.As(e, &mf) {
			return nil, mf
		}
	}
	return nil, err
}

// CheckFunc reports whether a candidate script still reproduces the
// failure under investigation.
type CheckFunc func(*Script) bool

// Minimize greedily shrinks a failing script while stillFails keeps
// returning true, bounded by budget re-executions: first whole steps
// (coarse chunks down to single steps), then individual ops inside
// the surviving transactions. The result is not guaranteed minimal —
// it is a small, still-failing reproduction.
func Minimize(sc *Script, stillFails CheckFunc, budget int) *Script {
	cur := cloneScript(sc)
	tries := 0
	spend := func(c *Script) bool {
		if tries >= budget {
			return false
		}
		tries++
		return stillFails(c)
	}

	// Pass 1: drop step chunks, halving the chunk size.
	for size := len(cur.Steps) / 2; size >= 1; size /= 2 {
		for at := 0; at+size <= len(cur.Steps); {
			cand := cloneScript(cur)
			cand.Steps = append(cand.Steps[:at:at], cand.Steps[at+size:]...)
			if spend(cand) {
				cur = cand
				continue // same at, shorter script
			}
			at++
		}
	}

	// Pass 2: drop single ops, scanning backwards so indexes stay valid.
	for si := len(cur.Steps) - 1; si >= 0; si-- {
		for oi := len(cur.Steps[si].Ops) - 1; oi >= 0; oi-- {
			cand := cloneScript(cur)
			ops := cand.Steps[si].Ops
			cand.Steps[si].Ops = append(ops[:oi:oi], ops[oi+1:]...)
			if spend(cand) {
				cur = cand
			}
		}
	}
	return cur
}

func cloneScript(sc *Script) *Script {
	c := *sc
	c.Steps = make([]Step, len(sc.Steps))
	copy(c.Steps, sc.Steps)
	return &c
}

// TortureOpts parameterizes a long randomized campaign.
type TortureOpts struct {
	Iters int
	Seed  int64  // first seed; iteration i runs Seed+i
	Cfg   Config // template; Seed is overridden per iteration
	Base  string // scratch-dir base ("" = system temp)
	// Minimize shrinks the script of each failure (costly; off for
	// quick smoke runs).
	Minimize bool
	// Progress, when set, is called after each iteration.
	Progress func(done, failures int)
	// MaxFailures stops the campaign early once reached (0 = collect
	// them all).
	MaxFailures int
}

// TortureSummary aggregates a campaign.
type TortureSummary struct {
	Iters       int
	Failures    int
	Crashes     int
	Recoveries  int
	TornTails   int
	Injected    uint64
	Firings     uint64
	Happenings  uint64
	FailedSeeds []int64
	// Egress aggregates (runs with Config.Egress): ledger effects
	// applied, dedupe-absorbed redeliveries, bounded-retry stalls, and
	// scripted deliverer crashes across the campaign.
	EgressEffects    uint64
	Redelivered      uint64
	GaveUp           uint64
	DelivererCrashes int
}

// Torture runs Iters independent seeded simulations and aggregates
// their outcomes. Every failure carries its seed and reproduction
// script.
func Torture(o TortureOpts) (TortureSummary, []*Failure) {
	sum := TortureSummary{}
	var fails []*Failure
	for i := 0; i < o.Iters; i++ {
		cfg := o.Cfg
		cfg.Seed = o.Seed + int64(i)
		sum.Iters++
		res, err := Run(cfg, o.Base, o.Minimize)
		if err != nil {
			sum.Failures++
			sum.FailedSeeds = append(sum.FailedSeeds, cfg.Seed)
			var f *Failure
			if errors.As(err, &f) {
				fails = append(fails, f)
			} else {
				fails = append(fails, &Failure{Seed: cfg.Seed, Err: err, Script: Generate(cfg)})
			}
			if o.MaxFailures > 0 && sum.Failures >= o.MaxFailures {
				break
			}
		} else {
			sum.Crashes += res.Crashes
			sum.Recoveries += res.Recoveries
			sum.TornTails += res.TornTails
			sum.Injected += res.InjectedFaults
			sum.Firings += res.Stats.Firings
			sum.Happenings += res.Stats.Happenings
			sum.EgressEffects += uint64(res.EgressEffects)
			sum.Redelivered += res.EgressRedelivered
			sum.GaveUp += res.EgressGaveUp
			sum.DelivererCrashes += res.DelivererCrashes
		}
		if o.Progress != nil {
			o.Progress(sum.Iters, sum.Failures)
		}
	}
	return sum, fails
}
