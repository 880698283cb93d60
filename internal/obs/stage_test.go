package obs

import (
	"encoding/json"
	"testing"
)

func TestStageJSON(t *testing.T) {
	b, err := json.Marshal(FlightEvent{Stage: StageTcomplete})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["stage"] != "tcomplete" {
		t.Fatalf("stage marshaled as %v", m["stage"])
	}
	seen := map[string]bool{}
	for s := StageHappening; s <= StageRollback; s++ {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("stage %d has bad or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if Stage(99).String() != "stage(99)" {
		t.Fatalf("unknown stage name = %q", Stage(99).String())
	}
}
