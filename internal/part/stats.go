package part

import (
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sort"

	"ode/internal/engine"
	"ode/internal/obs"
)

// Stats returns the aggregate counter snapshot: the field-wise sum of
// every partition's engine Stats — with one exception: the compile-
// cache counters are process-wide (every engine reads the same hash-
// cons cache), so the aggregate takes them once instead of multiplying
// them by the partition count. Exact when the DB is quiescent (after
// Drain), like any engine snapshot.
func (db *DB) Stats() engine.Stats {
	var agg engine.Stats
	for i, pt := range db.parts {
		s := pt.eng.Stats()
		if i == 0 {
			agg.CompileCacheHits = s.CompileCacheHits
			agg.CompileCacheMisses = s.CompileCacheMisses
		}
		s.CompileCacheHits, s.CompileCacheMisses = 0, 0
		agg = addStats(agg, s)
	}
	return agg
}

// PartitionStats returns each partition's own Stats, in partition
// order.
func (db *DB) PartitionStats() []engine.Stats {
	out := make([]engine.Stats, len(db.parts))
	for i, pt := range db.parts {
		out[i] = pt.eng.Stats()
	}
	return out
}

// addStats sums two snapshots field-wise, counters and gauges alike
// (every field of engine.Stats is a uint64).
func addStats(a, b engine.Stats) engine.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}

// Metrics returns the aggregate per-trigger/per-class metrics view:
// every partition's registry snapshot merged by (class, trigger) key
// (counters summed, latency histograms merged bucket-wise).
func (db *DB) Metrics() obs.Snapshot {
	snaps := make([]obs.Snapshot, len(db.parts))
	for i, pt := range db.parts {
		snaps[i] = pt.eng.Metrics().Snapshot()
	}
	return obs.MergeSnapshots(snaps...)
}

// FlightEvents merges every partition's flight-recorder window into
// one chronological dump: each event carries its partition id (stamped
// at dump time by the owning engine), ordered by virtual timestamp
// with (partition, sequence) as the tie-break.
func (db *DB) FlightEvents(last int) []obs.FlightEvent {
	var out []obs.FlightEvent
	for _, pt := range db.parts {
		out = append(out, pt.eng.FlightEvents(last)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.AtNs != b.AtNs {
			return a.AtNs < b.AtNs
		}
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		return a.Seq < b.Seq
	})
	if last > 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}

// ExpvarNames publishes (if needed) and returns each partition
// engine's expvar key, in partition order — the consistency tests sum
// the published snapshots against the aggregate Stats.
func (db *DB) ExpvarNames() []string {
	out := make([]string, len(db.parts))
	for i, pt := range db.parts {
		out[i] = pt.eng.ExpvarName()
	}
	return out
}

// DebugHandler returns the partitioned introspection handler:
//
//	/debug/stats          aggregate Stats plus the per-partition array
//	/debug/metrics        aggregate OpenMetrics exposition (merged
//	                      registries + summed ode_engine_* series)
//	/debug/flight?last=N  merged flight dump with partition ids
//	/debug/feed?after=N&max=M  merged durable firing-egress feed
//	/debug/partition/<p>/debug/...  partition p's own engine handler
func (db *DB) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, struct {
			Partitions int            `json:"partitions"`
			Aggregate  engine.Stats   `json:"aggregate"`
			PerPart    []engine.Stats `json:"per_partition"`
		}{len(db.parts), db.Stats(), db.PartitionStats()})
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, db.Metrics(), engine.PromExtras(db.Stats()))
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if events, ok := obs.QueryEvents(w, r, 0, db.FlightEvents); ok {
			obs.WriteJSON(w, struct {
				Partitions int               `json:"partitions"`
				Events     []obs.FlightEvent `json:"events"`
			}{len(db.parts), events})
		}
	})
	mux.HandleFunc("/debug/feed", db.handleDebugFeed)
	for p, pt := range db.parts {
		prefix := fmt.Sprintf("/debug/partition/%d", p)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, pt.eng.DebugHandler()))
	}
	return mux
}

// ServeDebug starts an HTTP listener serving DebugHandler on addr
// ("auto" binds a free localhost port) and returns the bound address.
// The listener runs until Close.
func (db *DB) ServeDebug(addr string) (string, error) {
	if addr == "auto" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("part: debug endpoint: %w", err)
	}
	srv := &http.Server{Handler: db.DebugHandler()}
	db.debugMu.Lock()
	db.debugSrvs = append(db.debugSrvs, srv)
	db.debugMu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
