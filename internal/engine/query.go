package engine

import (
	"fmt"

	"ode/internal/compile"
	"ode/internal/evlang"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
)

// History returns oid's happening records from the trace, oldest
// first: record i is point i+1 of the object's event history (§3.4).
// It refuses rather than answer from a tail: when tracing is off, when
// the object was allocated before the trace was installed (a recovered
// object, or one created before EnableTracing), and when the trace has
// lapped.
func (e *Engine) History(oid store.OID) ([]obs.FlightEvent, error) {
	tr := e.trace.Load()
	if tr == nil {
		return nil, fmt.Errorf("engine: the history of object %d is read from the trace, and tracing is off", oid)
	}
	if uint64(oid) < tr.from.Load() {
		return nil, fmt.Errorf("engine: object %d predates the trace, which misses its early happenings", oid)
	}
	var out []obs.FlightEvent
	for _, ev := range e.dump(tr.Flight, 0) {
		if ev.Stage == obs.StageHappening && ev.OID == uint64(oid) {
			out = append(out, ev)
		}
	}
	if tr.Lapped() {
		return nil, fmt.Errorf("engine: the trace has lapped, overwriting early happenings of object %d", oid)
	}
	return out, nil
}

// QueryHistory evaluates an event expression over an object's history
// (History) and returns the points at which the event occurred — the
// paper's §9 "history expressions" direction ("explicit manipulation
// of event histories to specify events"), realized as offline replay
// of the same compilation pipeline.
//
// The expression must be mask-free: masks are evaluated against
// database state at the instant of their basic event, and that state
// is gone. Time events that appear in the class's triggers may be
// referenced (their firings are recorded points).
func (e *Engine) QueryHistory(oid store.OID, eventSrc string) ([]uint64, error) {
	hist, err := e.History(oid)
	if err != nil {
		return nil, err
	}
	rec, err := e.st.Get(oid)
	if err != nil {
		return nil, err
	}
	c, err := e.classOf(rec)
	if err != nil {
		return nil, err
	}

	// Resolve the query alongside the class's real triggers so the
	// shared alphabet contains every kind the history can mention
	// (including other triggers' timer kinds).
	probe := *c.Schema
	probe.Triggers = append(append([]schema.Trigger{}, c.Schema.Triggers...),
		schema.Trigger{Name: "__query", Event: eventSrc})
	res, err := evlang.ResolveClass(&probe, c.parser)
	if err != nil {
		return nil, err
	}
	q := res.Trigger("__query")
	for _, bits := range q.UsedBits {
		if bits != 0 {
			return nil, fmt.Errorf("engine: history queries cannot use masks — state at past events is not reconstructible")
		}
	}

	kinds := make(map[string]int, len(res.Alphabet.Kinds))
	for kix, k := range res.Alphabet.Kinds {
		kinds[k.Kind.String()] = kix
	}
	det := compile.NewDetector(compile.Compile(q.Expr, res.Alphabet.NumSymbols))
	var out []uint64
	for i, ev := range hist {
		kix, ok := kinds[ev.Kind]
		if !ok {
			// A kind outside the resolved space (e.g. the timer of a
			// trigger added after this history was recorded) is still
			// a history point; it cannot advance the query toward
			// acceptance but must be visible to negation and
			// adjacency. There is no such symbol to feed, so refuse
			// rather than silently skew the result.
			return nil, fmt.Errorf("engine: history of object %d contains unknown kind %s", oid, ev.Kind)
		}
		if det.Post(res.Alphabet.Symbol(kix, 0)) {
			out = append(out, uint64(i+1))
		}
	}
	return out, nil
}
