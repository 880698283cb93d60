package engine

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ode/internal/schema"
	"ode/internal/value"
)

// twoClasses registers two distinct classes whose triggers use the
// same event expression ("after deposit") — the hash-consing scenario.
func twoClasses(t *testing.T, e *Engine) {
	t.Helper()
	rec := &recorder{}
	for _, name := range []string{"checking", "savings"} {
		cls := &schema.Class{
			Name: name,
			Fields: []schema.Field{
				{Name: "balance", Kind: value.KindInt, Default: value.Int(0)},
			},
			Methods: []schema.Method{
				{Name: "deposit", Params: []schema.Param{{Name: "amount", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			},
			Triggers: []schema.Trigger{{Name: "notify", Event: "after deposit"}},
		}
		impl := ClassImpl{
			Methods: map[string]MethodImpl{
				"deposit": func(ctx *MethodCtx) (value.Value, error) {
					return value.Null(), nil
				},
			},
			Actions: map[string]ActionFunc{
				"notify": func(ctx *ActionCtx) error { rec.add("notify"); return nil },
			},
		}
		if _, err := e.RegisterClass(cls, impl, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossClassTableSharing pins the tentpole: equivalent triggers in
// different classes step one resident table.
func TestCrossClassTableSharing(t *testing.T) {
	e := newEngine(t, Options{})
	twoClasses(t, e)

	a := e.Class("checking").Triggers[0]
	b := e.Class("savings").Triggers[0]
	if a.Auto.Tab != b.Auto.Tab {
		t.Fatal("equivalent triggers across classes did not share a table")
	}
	st := e.Stats()
	if st.AutomatonTriggers != 2 {
		t.Fatalf("AutomatonTriggers = %d, want 2", st.AutomatonTriggers)
	}
	if st.AutomatonTables != 1 {
		t.Fatalf("AutomatonTables = %d, want 1 (shared)", st.AutomatonTables)
	}
	if st.AutomatonTableBytes == 0 {
		t.Fatal("AutomatonTableBytes not accounted")
	}
	if st.CompileCacheHits+st.CompileCacheMisses == 0 {
		t.Fatal("compile cache counters not wired into Stats")
	}
	// The expanded oracle must agree with the compact form shape-wise.
	oracle := a.Oracle()
	if oracle.NumStates != a.Auto.Tab.Compact.NumStates() {
		t.Fatal("oracle and compact state counts differ")
	}
}

// TestDebugAutomataEndpoint exercises /debug/automata end to end.
func TestDebugAutomataEndpoint(t *testing.T) {
	e := newEngine(t, Options{})
	twoClasses(t, e)

	srv := httptest.NewServer(e.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/automata")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Triggers   uint64 `json:"triggers"`
		Tables     uint64 `json:"distinct_tables"`
		TableBytes uint64 `json:"resident_table_bytes"`
		Automata   []struct {
			Class      string `json:"class"`
			Trigger    string `json:"trigger"`
			Hash       string `json:"table_hash"`
			TableBytes int    `json:"table_bytes"`
			FatBytes   int    `json:"fat_bytes"`
			SharedBy   int    `json:"shared_by"`
		} `json:"automata"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Triggers != 2 || got.Tables != 1 {
		t.Fatalf("summary = %d triggers / %d tables, want 2/1", got.Triggers, got.Tables)
	}
	if len(got.Automata) != 2 {
		t.Fatalf("listed %d automata, want 2", len(got.Automata))
	}
	if got.Automata[0].Hash != got.Automata[1].Hash {
		t.Fatal("shared triggers should report one table hash")
	}
	for _, a := range got.Automata {
		if a.SharedBy != 2 {
			t.Fatalf("%s/%s shared_by = %d, want 2", a.Class, a.Trigger, a.SharedBy)
		}
		if a.TableBytes <= 0 || a.FatBytes <= 0 {
			t.Fatalf("%s/%s reports empty footprints", a.Class, a.Trigger)
		}
	}
}
