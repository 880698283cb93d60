package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCampaignWritesItsSummary runs a three-iteration campaign the way
// the nightly workflow does and reads back the summary it wrote.
func TestCampaignWritesItsSummary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sim.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-iters", "3", "-seed", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Seed    int64
		Summary struct{ Iters, Failures int }
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 1 || got.Summary.Iters != 3 || got.Summary.Failures != 0 {
		t.Fatalf("summary = %+v, want seed 1, 3 iterations, 0 failures:\n%s", got, blob)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(out), "sim-flight.json")); !os.IsNotExist(err) {
		t.Fatalf("a campaign without failures wrote a flight dump (stat: %v)", err)
	}
}

// TestUnknownFlagFails: a mistyped flag is a usage error, not a
// default campaign.
func TestUnknownFlagFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "E1"}, &stdout, &stderr); code == 0 {
		t.Fatalf("odesim -exp E1 exited 0\nstdout:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a usage error started a campaign:\n%s", stdout.String())
	}
}
