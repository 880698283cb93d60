package engine

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"

	"ode/internal/compile"
	"ode/internal/fault"
	"ode/internal/obs"
	"ode/internal/store"
)

// debugEngineSeq disambiguates the expvar names of engines opened in
// one process (expvar.Publish panics on duplicates).
var debugEngineSeq atomic.Uint64

// DebugHandler returns the live introspection handler:
//
//	/debug/stats       cumulative Stats counters (JSON)
//	/debug/triggers    per-trigger and per-class metrics (JSON)
//	/debug/trace?last=N  last N pipeline trace events (JSON)
//	/debug/automata    resident automaton memory and table sharing (JSON)
//	/debug/metrics     Prometheus/OpenMetrics text exposition
//	/debug/why?trigger=T&oid=N  firing provenance of one instance (JSON)
//	/debug/flight?last=N  flight-recorder dump (JSON)
//	/debug/feed?after=N&max=M  durable firing-egress feed records (JSON)
//	/debug/vars        expvar (includes this engine's stats)
//	/debug/pprof/...   the standard runtime profiles
//
// The handler reads live state; it never blocks posting.
func (e *Engine) DebugHandler() http.Handler {
	e.publishExpvar()
	mux := DebugView{Partitions: 1, Stats: e.Stats, Metrics: e.metrics.Snapshot,
		Flight: e.FlightEvents, FlightTotal: e.flight.Total, Feed: e.FiringsAfter}.Mux()
	mux.HandleFunc("/debug/triggers", e.handleDebugTriggers)
	mux.HandleFunc("/debug/trace", e.handleDebugTrace)
	mux.HandleFunc("/debug/automata", e.handleDebugAutomata)
	mux.HandleFunc("/debug/faults", e.handleDebugFaults)
	mux.HandleFunc("/debug/why", e.handleDebugWhy)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts an HTTP listener serving DebugHandler on addr
// ("auto" or ":0" forms bind a free port) and returns the bound
// address. The listener runs until Engine.Close.
func (e *Engine) ServeDebug(addr string) (string, error) {
	if addr == "auto" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("engine: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: e.DebugHandler()}
	e.debugMu.Lock()
	e.debugSrvs = append(e.debugSrvs, srv)
	e.debugMu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// publishExpvar publishes this engine's Stats under a process-unique
// expvar name (once).
func (e *Engine) publishExpvar() {
	e.debugVar.Do(func() {
		name := fmt.Sprintf("ode.engine.%d", debugEngineSeq.Add(1)-1)
		e.debugMu.Lock()
		e.expvarName = name
		e.debugMu.Unlock()
		expvar.Publish(name, expvar.Func(func() any { return e.Stats() }))
	})
}

// ExpvarName publishes (if needed) and returns the expvar key this
// engine's Stats appear under in /debug/vars — tests use it to check
// the expvar and /debug/metrics views agree.
func (e *Engine) ExpvarName() string {
	e.publishExpvar()
	e.debugMu.Lock()
	defer e.debugMu.Unlock()
	return e.expvarName
}

// DebugView is what the /debug/stats, /debug/metrics, /debug/flight
// and /debug/feed bodies read: one engine, or a partitioned database's
// aggregate over its engines (internal/part), so both serve the same
// documents and series.
type DebugView struct {
	Partitions int
	Stats      func() Stats
	// PerPartition, when set, makes /debug/stats the aggregate Stats
	// beside each partition's; without it /debug/stats is Stats itself.
	PerPartition func() []Stats
	Metrics      func() obs.Snapshot
	Flight       func(last int) []obs.FlightEvent
	FlightTotal  func() uint64
	Feed         func(after uint64, max int) ([]store.FiringRecord, uint64)
}

// Mux returns a mux serving v's four routes:
//
//	/debug/stats       Stats (JSON)
//	/debug/metrics     OpenMetrics: the per-trigger families and Stats
//	/debug/flight?last=N  flight-recorder dump (JSON)
//	/debug/feed?after=N&max=M  up to M firing-egress feed records after
//	                   position N (after defaults to 0, max to 1000)
func (v DebugView) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		if v.PerPartition == nil {
			obs.WriteJSON(w, v.Stats())
			return
		}
		obs.WriteJSON(w, struct {
			Partitions int     `json:"partitions"`
			Aggregate  Stats   `json:"aggregate"`
			PerPart    []Stats `json:"per_partition"`
		}{v.Partitions, v.Stats(), v.PerPartition()})
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, v.Metrics(), promExtras(v.Stats()))
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if events, ok := obs.QueryEvents(w, r, 0, v.Flight); ok {
			obs.WriteJSON(w, struct {
				Partitions int               `json:"partitions"`
				Total      uint64            `json:"total"`
				Events     []obs.FlightEvent `json:"events"`
			}{v.Partitions, v.FlightTotal(), events})
		}
	})
	mux.HandleFunc("/debug/feed", func(w http.ResponseWriter, r *http.Request) {
		after, ok := obs.QueryUint(w, r, "after", 0)
		if !ok {
			return
		}
		max, ok := obs.QueryUint(w, r, "max", 1000)
		if !ok {
			return
		}
		recs, head := v.Feed(after, int(max))
		if recs == nil {
			recs = []store.FiringRecord{}
		}
		obs.WriteJSON(w, struct {
			Partitions int                  `json:"partitions"`
			Head       uint64               `json:"head"`
			Records    []store.FiringRecord `json:"records"`
		}{v.Partitions, head, recs})
	})
	return mux
}

// promExtras renders a Stats snapshot as exposition-format series.
// Counters keep the _total suffix; the registration-state automaton
// fields are gauges.
func promExtras(s Stats) []obs.PromMetric {
	return []obs.PromMetric{
		{Name: "ode_engine_tx_begun_total", Help: "User transactions started.", Value: float64(s.TxBegun)},
		{Name: "ode_engine_tx_committed_total", Help: "User transactions committed.", Value: float64(s.TxCommitted)},
		{Name: "ode_engine_tx_aborted_total", Help: "User transactions aborted.", Value: float64(s.TxAborted)},
		{Name: "ode_engine_system_tx_total", Help: "System transactions run.", Value: float64(s.SystemTx)},
		{Name: "ode_engine_happenings_total", Help: "Happenings posted to objects.", Value: float64(s.Happenings)},
		{Name: "ode_engine_steps_total", Help: "Trigger-automaton transitions taken.", Value: float64(s.Steps)},
		{Name: "ode_engine_mask_evals_total", Help: "Logical-event mask evaluations.", Value: float64(s.MaskEvals)},
		{Name: "ode_engine_firings_total", Help: "Trigger actions executed.", Value: float64(s.Firings)},
		{Name: "ode_engine_timer_posts_total", Help: "Time-event deliveries.", Value: float64(s.TimerPosts)},
		{Name: "ode_engine_timer_errors_dropped_total", Help: "Timer-delivery errors evicted from the bounded error ring.", Value: float64(s.TimerErrsDropped)},
		{Name: "ode_engine_timers_pending", Help: "Timers currently armed on the virtual clock.", Type: "gauge", Value: float64(s.TimersPending)},
		{Name: "ode_engine_timer_cohorts", Help: "Live shared timer schedules (cohorts).", Type: "gauge", Value: float64(s.TimerCohorts)},
		{Name: "ode_engine_timer_members", Help: "Memberships in live cohorts, one per (object, cohort).", Type: "gauge", Value: float64(s.TimerMembers)},
		{Name: "ode_engine_tcomplete_rounds_total", Help: "Rounds of the before-tcomplete commit fixpoint.", Value: float64(s.TcompleteRounds)},
		{Name: "ode_engine_faults_injected_total", Help: "Failures fired by the fault-injection registry.", Value: float64(s.FaultsInjected)},
		{Name: "ode_engine_flight_events_total", Help: "Events captured by the flight recorder.", Value: float64(s.FlightEvents)},
		{Name: "ode_engine_provenance_steps_total", Help: "Transitions appended to the firing-provenance journals.", Value: float64(s.ProvenanceSteps)},
		{Name: "ode_engine_provenance_objects", Help: "Objects with a firing-provenance head.", Type: "gauge", Value: float64(s.ProvObjects)},
		{Name: "ode_engine_provenance_bytes", Help: "Bytes of firing-provenance journals resident.", Type: "gauge", Value: float64(s.ProvBytes)},
		{Name: "ode_engine_automaton_triggers", Help: "Registered triggers stepping a compact table.", Type: "gauge", Value: float64(s.AutomatonTriggers)},
		{Name: "ode_engine_automaton_tables", Help: "Distinct hash-consed automaton tables resident.", Type: "gauge", Value: float64(s.AutomatonTables)},
		{Name: "ode_engine_automaton_table_bytes", Help: "Resident automaton table bytes.", Type: "gauge", Value: float64(s.AutomatonTableBytes)},
		{Name: "ode_engine_compile_cache_hits_total", Help: "Process-wide automaton compile-cache hits.", Value: float64(s.CompileCacheHits)},
		{Name: "ode_engine_compile_cache_misses_total", Help: "Process-wide automaton compile-cache misses.", Value: float64(s.CompileCacheMisses)},
		{Name: "ode_engine_egress_appended_total", Help: "Firing records made durable on the egress feed.", Value: float64(s.EgressAppended)},
		{Name: "ode_engine_egress_seq", Help: "Egress feed head (highest visible firing sequence number).", Type: "gauge", Value: float64(s.EgressSeq)},
	}
}

func (e *Engine) handleDebugWhy(w http.ResponseWriter, r *http.Request) {
	trigger := r.URL.Query().Get("trigger")
	oidStr := r.URL.Query().Get("oid")
	if trigger == "" || oidStr == "" {
		http.Error(w, "need trigger and oid parameters", http.StatusBadRequest)
		return
	}
	oid, err := strconv.ParseUint(oidStr, 10, 64)
	if err != nil {
		http.Error(w, "bad oid parameter", http.StatusBadRequest)
		return
	}
	ex, err := e.Explain(trigger, store.OID(oid))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, ex)
}

func (e *Engine) handleDebugTriggers(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, e.metrics.Snapshot())
}

func (e *Engine) handleDebugFaults(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, struct {
		Installed bool               `json:"installed"`
		Points    []fault.PointStats `json:"points,omitempty"`
		Recovery  store.RecoveryInfo `json:"recovery"`
	}{
		Installed: e.faults != nil,
		Points:    e.faults.Snapshot(),
		Recovery:  e.st.Recovery(),
	})
}

func (e *Engine) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if events, ok := obs.QueryEvents(w, r, 100, e.TraceEvents); ok {
		obs.WriteJSON(w, struct {
			Enabled bool              `json:"enabled"`
			Events  []obs.FlightEvent `json:"events"`
		}{Enabled: e.TracingEnabled(), Events: events})
	}
}

// debugAutomaton is one trigger's row in /debug/automata.
type debugAutomaton struct {
	Class   string `json:"class"`
	Trigger string `json:"trigger"`
	// Hash identifies the shared table (FNV-1a of the canonical
	// normalized expression); triggers with the same hash step the same
	// resident table.
	Hash       string `json:"table_hash"`
	States     int    `json:"states"`
	Symbols    int    `json:"symbols"`
	Rows       int    `json:"distinct_rows"`
	Wide       bool   `json:"wide_cells"`
	TableBytes int    `json:"table_bytes"`
	// FatBytes is what an unshared states×symbols×8 table over the full
	// class alphabet would cost — the §5 baseline this engine avoids.
	FatBytes int `json:"fat_bytes"`
	// SharedBy counts triggers in this engine stepping the same table.
	SharedBy int `json:"shared_by"`
}

func (e *Engine) handleDebugAutomata(w http.ResponseWriter, r *http.Request) {
	cs := compile.AutomatonCacheStats()
	reg := e.reg.Load()
	sharers := map[*compile.Table]int{}
	for _, c := range reg.classes {
		for _, t := range c.Triggers {
			sharers[t.Auto.Tab]++
		}
	}
	var rows []debugAutomaton
	for _, c := range reg.classes {
		for _, t := range c.Triggers {
			tab := t.Auto.Tab
			rows = append(rows, debugAutomaton{
				Class:      c.Schema.Name,
				Trigger:    t.Res.Name,
				Hash:       fmt.Sprintf("%016x", tab.Hash),
				States:     tab.Compact.NumStates(),
				Symbols:    tab.Compact.NumSymbols(),
				Rows:       tab.Compact.NumRows(),
				Wide:       tab.Compact.Wide(),
				TableBytes: tab.Compact.Bytes(),
				FatBytes:   tab.Compact.NumStates() * len(t.Auto.SymMap) * 8,
				SharedBy:   sharers[tab],
			})
		}
	}
	triggers, tables, bytes := reg.automata()
	summary := struct {
		Triggers   uint64           `json:"triggers"`
		Tables     uint64           `json:"distinct_tables"`
		TableBytes uint64           `json:"resident_table_bytes"`
		CacheHits  uint64           `json:"compile_cache_hits"`
		CacheMiss  uint64           `json:"compile_cache_misses"`
		Automata   []debugAutomaton `json:"automata"`
	}{
		Triggers:   triggers,
		Tables:     tables,
		TableBytes: bytes,
		CacheHits:  cs.Hits,
		CacheMiss:  cs.Misses,
		Automata:   rows,
	}
	sort.Slice(summary.Automata, func(i, j int) bool {
		a, b := summary.Automata[i], summary.Automata[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Trigger < b.Trigger
	})
	obs.WriteJSON(w, summary)
}
