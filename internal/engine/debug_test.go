package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/value"
)

func debugGet(t *testing.T, srv *httptest.Server, path string, out any) {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); out != nil && !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: %v in %s", path, err, body)
		}
	}
}

// TestDebugEndpoint drives a workload and checks every /debug route:
// stats, per-trigger metrics (whose firing counts and latency
// histograms must sum to Stats().Firings), trace, expvar and pprof.
func TestDebugEndpoint(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Large", Perpetual: true, Event: "after withdraw(a) && a > 100"},
		schema.Trigger{Name: "AnyDep", Perpetual: true, Event: "after deposit"})
	e := newEngine(t, Options{})
	e.EnableTracing(256)
	oid := setup(t, e, cls, impl, "Large", "AnyDep")

	if err := e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(500))
		tx.Call(oid, "deposit", value.Int(5))
		tx.Call(oid, "deposit", value.Int(7))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(e.DebugHandler())
	defer srv.Close()

	var stats Stats
	debugGet(t, srv, "/debug/stats", &stats)
	if stats.Firings != 3 || stats.TxCommitted < 2 {
		t.Fatalf("stats = %+v", stats)
	}

	var snap obs.Snapshot
	debugGet(t, srv, "/debug/triggers", &snap)
	var firings, latCount uint64
	for _, ts := range snap.Triggers {
		firings += ts.Firings
		latCount += ts.Latency.Count
	}
	if firings != stats.Firings {
		t.Fatalf("per-trigger firings %d != Stats().Firings %d", firings, stats.Firings)
	}
	if latCount != stats.Firings {
		t.Fatalf("latency histogram counts %d != Stats().Firings %d", latCount, stats.Firings)
	}

	var trace struct {
		Enabled bool              `json:"enabled"`
		Events  []obs.FlightEvent `json:"events"`
	}
	debugGet(t, srv, "/debug/trace?last=5", &trace)
	if !trace.Enabled || len(trace.Events) != 5 {
		t.Fatalf("trace = enabled=%v %d events", trace.Enabled, len(trace.Events))
	}
	debugGet(t, srv, "/debug/trace", &trace)
	if len(trace.Events) == 0 {
		t.Fatal("default trace empty")
	}

	// Bad query parameter is a 400, not a panic.
	resp, err := http.Get(srv.URL + "/debug/trace?last=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad last => %d", resp.StatusCode)
	}

	// expvar and pprof are mounted.
	var vars map[string]any
	debugGet(t, srv, "/debug/vars", &vars)
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline => %d", resp.StatusCode)
	}

	// With tracing disabled /debug/trace reports enabled=false.
	e.DisableTracing()
	debugGet(t, srv, "/debug/trace", &trace)
	if trace.Enabled {
		t.Fatal("trace endpoint claims enabled after DisableTracing")
	}
}

// TestServeDebug exercises the real listener path and Close shutdown.
func TestServeDebug(t *testing.T) {
	e := newEngine(t, Options{})
	addr, err := e.ServeDebug("auto")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/stats"); err == nil {
		t.Fatal("debug endpoint still serving after Close")
	}
}
