package engine

import (
	"time"

	"ode/internal/event"
	"ode/internal/obs"
	"ode/internal/store"
)

// Tracing is held behind one atomic pointer so it can be toggled at
// runtime (odesh's .trace on|off) without locking the posting hot
// path: when disabled, every emit helper below is one atomic load and
// a branch — no allocation, no lock, nothing formatted.
type tracerBox struct{ t obs.Tracer }

// EnableTracing installs a fresh ring tracer with the given capacity
// (<= 0 picks obs.DefaultRingCapacity) and returns it. Any previous
// tracer is discarded.
func (e *Engine) EnableTracing(capacity int) *obs.Ring {
	r := obs.NewRing(capacity)
	e.traceBox.Store(&tracerBox{t: r})
	return r
}

// DisableTracing turns tracing off.
func (e *Engine) DisableTracing() { e.traceBox.Store(nil) }

// TracingEnabled reports whether a tracer is installed.
func (e *Engine) TracingEnabled() bool { return e.tracer() != nil }

// TraceEvents returns the last trace events in chronological order
// (nil when tracing is disabled).
func (e *Engine) TraceEvents(last int) []obs.Event {
	if t := e.tracer(); t != nil {
		return t.Events(last)
	}
	return nil
}

// Metrics exposes the per-trigger / per-class metrics registry.
// Metrics are always on: updates are cached-pointer atomic adds, the
// same cost class as the global Stats counters.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

func (e *Engine) tracer() obs.Tracer {
	if b := e.traceBox.Load(); b != nil {
		return b.t
	}
	return nil
}

// traceHappening instruments the pipeline entry: one happening posted
// to one object (§5 "whenever a basic event ... is posted").
func (e *Engine) traceHappening(txid uint64, oid store.OID, class string, kind event.Kind) {
	t := e.tracer()
	if t == nil {
		return
	}
	t.Trace(obs.Event{
		At: e.clk.Now(), Stage: obs.StageHappening,
		TxID: txid, OID: uint64(oid), Class: class, Kind: kind.String(),
	})
}

// traceMask instruments one trigger's mask evaluation for a happening:
// used is the bit set the trigger's expression needs, got the bits
// that evaluated true.
func (e *Engine) traceMask(txid uint64, oid store.OID, class, trigger string, used, got uint32) {
	t := e.tracer()
	if t == nil {
		return
	}
	t.Trace(obs.Event{
		At: e.clk.Now(), Stage: obs.StageMask,
		TxID: txid, OID: uint64(oid), Class: class, Trigger: trigger,
		From: int(used), To: int(got), OK: got != 0,
	})
}

// traceStep instruments one automaton transition.
func (e *Engine) traceStep(txid uint64, oid store.OID, class, trigger string, from, to int, accepted bool) {
	t := e.tracer()
	if t == nil {
		return
	}
	t.Trace(obs.Event{
		At: e.clk.Now(), Stage: obs.StageStep,
		TxID: txid, OID: uint64(oid), Class: class, Trigger: trigger,
		From: from, To: to, OK: accepted,
	})
}

// traceFire instruments one trigger firing with its action latency.
func (e *Engine) traceFire(txid uint64, oid store.OID, class, trigger string, d time.Duration, err error) {
	t := e.tracer()
	if t == nil {
		return
	}
	ev := obs.Event{
		At: e.clk.Now(), Stage: obs.StageFire,
		TxID: txid, OID: uint64(oid), Class: class, Trigger: trigger,
		OK: err == nil, DurNs: d.Nanoseconds(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	t.Trace(ev)
}

// traceTimer gives t (nil: tracing is off; a tick loads it once for all
// members) one time-event delivery at at of the timer key to only (nil:
// every trigger), before its happening enters the pipeline. The flight
// recorder has no record of its own for it (flight.go).
func traceTimer(t obs.Tracer, at time.Time, oid store.OID, key string, only *Trigger) {
	if t == nil {
		return
	}
	ev := obs.Event{At: at, Stage: obs.StageTimer, OID: uint64(oid), Kind: key, OK: true}
	if only != nil {
		ev.Trigger = only.Res.Name
	}
	t.Trace(ev)
}

// traceTx instruments transaction lifecycle stages. The always-on
// flight recorder captures them too, tracer or no tracer.
func (e *Engine) traceTx(stage obs.Stage, txid uint64, system bool) {
	e.flightTx(stage, txid, system)
	t := e.tracer()
	if t == nil {
		return
	}
	kind := "user"
	if system {
		kind = "system"
	}
	t.Trace(obs.Event{At: e.clk.Now(), Stage: stage, TxID: txid, Kind: kind, OK: true})
}

// traceTcomplete instruments one round of the §6 commit fixpoint.
func (e *Engine) traceTcomplete(txid uint64, round int, fired bool) {
	t := e.tracer()
	if t == nil {
		return
	}
	t.Trace(obs.Event{
		At: e.clk.Now(), Stage: obs.StageTcomplete,
		TxID: txid, From: round, To: round + 1, OK: fired,
	})
}
