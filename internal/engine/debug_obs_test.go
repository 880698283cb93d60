package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// debugObsServer spins up a debug server over a worked engine: one
// account, a fired prior trigger and a perpetual one.
func debugObsServer(t *testing.T) (*Engine, *httptest.Server, uint64) {
	t.Helper()
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"},
		schema.Trigger{Name: "AnyDep", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Audit", "AnyDep")
	if err := e.Transact(func(tx *Tx) error {
		if _, err := tx.Call(oid, "deposit", value.Int(50)); err != nil {
			return err
		}
		_, err := tx.Call(oid, "withdraw", value.Int(20))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.DebugHandler())
	t.Cleanup(srv.Close)
	return e, srv, uint64(oid)
}

func debugGetBody(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// TestDebugWhyEndpoint: /debug/why returns the firing provenance as
// JSON with the documented shape.
func TestDebugWhyEndpoint(t *testing.T) {
	e, srv, oid := debugObsServer(t)

	var ex Explanation
	debugGet(t, srv, "/debug/why?trigger=Audit&oid="+strconv.FormatUint(oid, 10), &ex)
	if !ex.Fired || !ex.Complete || ex.Class != "account" || ex.Trigger != "Audit" {
		t.Fatalf("explanation = %+v", ex)
	}
	if len(ex.Steps) != 2 || ex.Steps[0].Kind != "after deposit" || !ex.Steps[1].Accepted {
		t.Fatalf("steps = %+v", ex.Steps)
	}
	for _, s := range ex.Steps {
		if s.Seq == 0 || s.AtNs == 0 {
			t.Fatalf("step missing seq/timestamp: %+v", s)
		}
	}
	var raw map[string]any
	debugGet(t, srv, "/debug/why?trigger=Audit&oid="+strconv.FormatUint(oid, 10), &raw)
	if cut, ok := raw["truncated"]; !ok || cut != false {
		t.Fatalf("truncated = %v (present %v), want false", cut, ok)
	}

	// More steps than the object's shard holds: the answer says where the
	// history was cut.
	cells := obs.DefaultProvenanceBytes >> provShardBits / obs.ProvCellBytes
	if err := e.Transact(func(tx *Tx) error {
		for i := 0; i <= cells; i++ {
			if _, err := tx.Call(store.OID(oid), "deposit", value.Int(1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	debugGet(t, srv, "/debug/why?trigger=AnyDep&oid="+strconv.FormatUint(oid, 10), &ex)
	if !ex.Truncated || !ex.Fired || len(ex.Steps) == 0 || len(ex.Steps) > cells || ex.Steps[0].Seq != 1 {
		t.Fatalf("explanation past the bound: truncated=%v fired=%v with %d steps", ex.Truncated, ex.Fired, len(ex.Steps))
	}

	// Error shapes: missing params 400, unknown trigger 404.
	if code, _, _ := debugGetBody(t, srv, "/debug/why"); code != http.StatusBadRequest {
		t.Fatalf("missing params => %d", code)
	}
	if code, _, _ := debugGetBody(t, srv, "/debug/why?trigger=Audit&oid=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad oid => %d", code)
	}
	if code, _, _ := debugGetBody(t, srv, "/debug/why?trigger=NoSuch&oid="+strconv.FormatUint(oid, 10)); code != http.StatusNotFound {
		t.Fatalf("unknown trigger => %d", code)
	}
}

// promSamples extracts unlabelled and labelled samples from an
// exposition body, checking the minimal format contract: every
// non-comment line is `series value`, and every series' family was
// announced by a preceding # TYPE line.
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && typed[f] {
				family = f
			}
		}
		if !typed[family] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// TestDebugMetricsEndpoint: /debug/metrics serves valid Prometheus
// text exposition covering the registry families and the engine-global
// counters.
func TestDebugMetricsEndpoint(t *testing.T) {
	e, srv, _ := debugObsServer(t)

	code, body, ct := debugGetBody(t, srv, "/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics => %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := promSamples(t, body)

	s := e.Stats()
	for name, want := range map[string]uint64{
		"ode_engine_firings_total":          s.Firings,
		"ode_engine_happenings_total":       s.Happenings,
		"ode_engine_steps_total":            s.Steps,
		"ode_engine_tx_committed_total":     s.TxCommitted,
		"ode_engine_flight_events_total":    s.FlightEvents,
		"ode_engine_provenance_steps_total": s.ProvenanceSteps,
		"ode_engine_automaton_triggers":     s.AutomatonTriggers,
		"ode_engine_egress_appended_total":  s.EgressAppended,
		"ode_engine_egress_seq":             s.EgressSeq,
	} {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s = %g, want %d", name, got, want)
		}
	}
	for _, series := range []string{
		`ode_trigger_firings_total{class="account",trigger="Audit"}`,
		`ode_class_happenings_total{class="account"}`,
		`ode_trigger_action_latency_seconds_bucket{class="account",trigger="Audit",le="+Inf"}`,
	} {
		if _, ok := samples[series]; !ok {
			t.Fatalf("missing series %s", series)
		}
	}
}

// TestDebugFlightEndpoint: the flight-recorder dump lists recent
// pipeline events, newest last, honoring ?last=N.
func TestDebugFlightEndpoint(t *testing.T) {
	e, srv, oid := debugObsServer(t)

	var dump struct {
		Total  uint64            `json:"total"`
		Events []obs.FlightEvent `json:"events"`
	}
	debugGet(t, srv, "/debug/flight", &dump)
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("flight dump empty: total=%d events=%d", dump.Total, len(dump.Events))
	}
	if dump.Total != e.Stats().FlightEvents {
		t.Fatalf("dump total %d != Stats().FlightEvents %d", dump.Total, e.Stats().FlightEvents)
	}
	var sawFire, sawHappening, sawCommit bool
	for i, ev := range dump.Events {
		if i > 0 && ev.Seq <= dump.Events[i-1].Seq {
			t.Fatalf("events out of order at %d: %+v", i, ev)
		}
		switch ev.Stage {
		case obs.StageFire:
			sawFire = true
			if ev.Class != "account" || ev.Trigger == "" || ev.OID != oid {
				t.Fatalf("fire event = %+v", ev)
			}
		case obs.StageHappening:
			sawHappening = true
			if ev.Kind == "" {
				t.Fatalf("happening without kind: %+v", ev)
			}
		case obs.StageTxCommit:
			sawCommit = true
		}
	}
	if !sawFire || !sawHappening || !sawCommit {
		t.Fatalf("dump missing stages: fire=%v happening=%v commit=%v", sawFire, sawHappening, sawCommit)
	}

	debugGet(t, srv, "/debug/flight?last=3", &dump)
	if len(dump.Events) != 3 {
		t.Fatalf("last=3 returned %d events", len(dump.Events))
	}
	if code, _, _ := debugGetBody(t, srv, "/debug/flight?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad last => %d", code)
	}
}

// TestExpvarMetricsConsistency: the engine's Stats published via
// expvar (/debug/vars) and the exposition at /debug/metrics are two
// views of the same counters and must agree while quiescent.
func TestExpvarMetricsConsistency(t *testing.T) {
	e, srv, _ := debugObsServer(t)

	_, promBody, _ := debugGetBody(t, srv, "/debug/metrics")
	samples := promSamples(t, promBody)

	var vars map[string]json.RawMessage
	debugGet(t, srv, "/debug/vars", &vars)
	raw, ok := vars[e.ExpvarName()]
	if !ok {
		t.Fatalf("expvar %q missing from /debug/vars (have %d vars)", e.ExpvarName(), len(vars))
	}
	var s Stats
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]uint64{
		"ode_engine_tx_begun_total":         s.TxBegun,
		"ode_engine_tx_committed_total":     s.TxCommitted,
		"ode_engine_happenings_total":       s.Happenings,
		"ode_engine_steps_total":            s.Steps,
		"ode_engine_mask_evals_total":       s.MaskEvals,
		"ode_engine_firings_total":          s.Firings,
		"ode_engine_flight_events_total":    s.FlightEvents,
		"ode_engine_provenance_steps_total": s.ProvenanceSteps,
		"ode_engine_provenance_objects":     s.ProvObjects,
		"ode_engine_provenance_bytes":       s.ProvBytes,
		"ode_engine_automaton_triggers":     s.AutomatonTriggers,
		"ode_engine_automaton_tables":       s.AutomatonTables,
	} {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if uint64(got) != want {
			t.Fatalf("%s: /debug/metrics says %g, /debug/vars says %d", name, got, want)
		}
	}
	if s.ProvObjects == 0 || s.ProvBytes == 0 || s.ProvBytes > obs.DefaultProvenanceBytes {
		t.Fatalf("the fired instance should hold provenance: %d heads, %d bytes", s.ProvObjects, s.ProvBytes)
	}
}
