package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gridsat/internal/trace"
)

func TestWriteBundleSections(t *testing.T) {
	dir := t.TempDir()
	events := make([]trace.FEvent, 0, 8)
	for i := 1; i <= 8; i++ {
		events = append(events, trace.FEvent{ID: uint64(i), Lamport: uint64(i), Kind: trace.FEvHeartbeat})
	}
	spec := BundleSpec{
		Dir:     dir,
		Name:    "bundle-001-test",
		Reason:  "unit-test",
		TSec:    42,
		Config:  map[string]any{"sched": "fifo"},
		State:   map[string]any{"jobs": 1},
		Metrics: map[string]any{"counters": []any{}},
		History: []Sample{{TSec: 1, Coverage: 0.25}, {TSec: 2, Coverage: 0.25}},
		Alerts:  []Alert{{Rule: RuleProgressStall, Subject: "cluster", TSec: 40}},
		Events:  events,
	}
	path, err := WriteBundle(spec)
	if err != nil {
		t.Fatal(err)
	}
	// All five sections plus the manifest must exist.
	for _, f := range []string{
		"flight.jsonl", "pprof/heap.pprof", "metrics.json",
		"history.json", "state.json", "config.json", "MANIFEST.json",
	} {
		if _, err := os.Stat(filepath.Join(path, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	// The manifest indexes the capture and reports no section errors.
	raw, err := os.ReadFile(filepath.Join(path, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man bundleManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Reason != "unit-test" || man.Events != 8 || man.Samples != 2 || man.Alerts != 1 {
		t.Errorf("manifest = %+v", man)
	}
	if len(man.Errors) != 0 {
		t.Errorf("manifest reports section errors: %v", man.Errors)
	}
	// The flight section round-trips through the JSONL reader.
	fd, err := os.Open(filepath.Join(path, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	got, err := trace.ReadJSONL(fd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[0].Kind != trace.FEvHeartbeat {
		t.Errorf("flight tail round-trip: %d events", len(got))
	}
	// The history section is the ring of samples, oldest first.
	hraw, err := os.ReadFile(filepath.Join(path, "history.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hout historyResponse
	if err := json.Unmarshal(hraw, &hout); err != nil {
		t.Fatal(err)
	}
	if len(hout.Samples) != 2 || hout.Samples[0].TSec != 1 || hout.Samples[1].Coverage != 0.25 {
		t.Errorf("history section = %+v", hout.Samples)
	}
}

func TestWriteBundleEventTail(t *testing.T) {
	events := make([]trace.FEvent, bundleEventTail+500)
	for i := range events {
		events[i] = trace.FEvent{ID: uint64(i + 1), Lamport: uint64(i + 1), Kind: trace.FEvHeartbeat, N: int64(i)}
	}
	path, err := WriteBundle(BundleSpec{Dir: t.TempDir(), Name: "tail", Reason: "tail", Events: events})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := os.Open(filepath.Join(path, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	got, err := trace.ReadJSONL(fd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != bundleEventTail {
		t.Fatalf("tail kept %d events, want %d", len(got), bundleEventTail)
	}
	if got[len(got)-1].N != int64(len(events)-1) {
		t.Errorf("tail dropped the newest events: last N = %d", got[len(got)-1].N)
	}
}
