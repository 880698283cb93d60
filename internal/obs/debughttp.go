package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// The /debug plumbing the engine's handler and the partitioned
// database's aggregate handler share: one JSON writer and one parser
// for the count and sequence parameters (last, after, max).

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// QueryUint reads the non-negative integer query parameter name, def
// when it is absent. A malformed value is answered 400 here and
// reported false.
func QueryUint(w http.ResponseWriter, r *http.Request, name string, def uint64) (uint64, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		http.Error(w, "bad "+name+" parameter", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// QueryEvents answers the ?last=N of an event dump (def when absent)
// with dump(N), never nil so that it encodes as []; a malformed N is
// answered 400 and reported false.
func QueryEvents(w http.ResponseWriter, r *http.Request, def uint64, dump func(last int) []FlightEvent) ([]FlightEvent, bool) {
	last, ok := QueryUint(w, r, "last", def)
	if !ok {
		return nil, false
	}
	evs := dump(int(last))
	if evs == nil {
		evs = []FlightEvent{}
	}
	return evs, true
}
