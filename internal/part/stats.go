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

// flightTotal is how many events every partition's flight recorder
// ever recorded.
func (db *DB) flightTotal() (n uint64) {
	for _, pt := range db.parts {
		n += pt.eng.Flight().Total()
	}
	return n
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

// DebugHandler returns the partitioned introspection handler: the
// engine's /debug/stats (aggregate Stats plus the per-partition array),
// /debug/metrics (merged registries, summed ode_engine_* series),
// /debug/flight (merged dump with partition ids) and /debug/feed (the
// merged feed) over the aggregate views (engine.DebugView), and
// /debug/partition/<p>/debug/... serving partition p's own engine
// handler.
func (db *DB) DebugHandler() http.Handler {
	mux := engine.DebugView{Partitions: len(db.parts), Stats: db.Stats, PerPartition: db.PartitionStats,
		Metrics: db.Metrics, Flight: db.FlightEvents, FlightTotal: db.flightTotal, Feed: db.FiringsAfter}.Mux()
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
