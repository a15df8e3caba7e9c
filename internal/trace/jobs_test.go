package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// jobTestLog is a compact two-job scheduler log exercising the full job
// lifecycle vocabulary plus a migration of job 1's subproblem onto the
// client that worked for job 2.
func jobTestLog() []FEvent {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart, N: 2})
	f.Emit(FEvent{Kind: FEvJobSubmit, Job: 1, N: 5, Detail: "ph8"})
	f.Emit(FEvent{Kind: FEvJobSubmit, Job: 2, N: 1, Detail: "rand40"})
	f.Emit(FEvent{Kind: FEvClientJoin, Client: 1})
	f.Emit(FEvent{Kind: FEvClientJoin, Client: 2})
	f.Emit(FEvent{Kind: FEvJobStart, Job: 1})
	f.Emit(FEvent{Kind: FEvAssign, Client: 1, Job: 1})
	f.Emit(FEvent{Kind: FEvJobStart, Job: 2})
	f.Emit(FEvent{Kind: FEvAssign, Client: 2, Job: 2})
	f.Emit(FEvent{Kind: FEvJobCancel, Job: 2})
	f.Emit(FEvent{Kind: FEvMigrate, Client: 1, Peer: 2, Job: 1})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2, Job: 1})
	f.Emit(FEvent{Kind: FEvJobDone, Job: 1, Detail: "UNSAT"})
	return f.Events()
}

// TestJobKindsKnown: every job lifecycle kind is in the validation
// vocabulary, so a scheduler log passes Validate.
func TestJobKindsKnown(t *testing.T) {
	for _, k := range []string{FEvJobSubmit, FEvJobStart, FEvJobDone, FEvJobCancel} {
		if !KnownKinds[k] {
			t.Errorf("job kind %q missing from KnownKinds", k)
		}
	}
	if err := Validate(jobTestLog()); err != nil {
		t.Fatalf("job lifecycle log rejected: %v", err)
	}
}

// TestJobFieldOmittedWhenZero: single-job events serialize without a
// "job" key, so pre-scheduler logs and job-0 logs are byte-identical.
func TestJobFieldOmittedWhenZero(t *testing.T) {
	data, err := json.Marshal(FEvent{ID: 1, Lamport: 1, Kind: FEvAssign, Client: 3})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"job"`)) {
		t.Fatalf("job 0 leaked into the JSONL line: %s", data)
	}
	data, _ = json.Marshal(FEvent{ID: 1, Lamport: 1, Kind: FEvAssign, Client: 3, Job: 2})
	if !bytes.Contains(data, []byte(`"job":2`)) {
		t.Fatalf("job tag missing from a job-2 event: %s", data)
	}
}

// TestJobVerdicts: per-job outcomes aggregate from job-done/job-cancel,
// and CompareLogs flags a per-job divergence even when the global verdict
// and per-kind counts agree, at the first event that moved.
func TestJobVerdicts(t *testing.T) {
	log := jobTestLog()
	jv := JobVerdicts(log)
	if jv[1] != "UNSAT" || jv[2] != "CANCELLED" {
		t.Fatalf("job verdicts %v", jv)
	}
	if len(JobVerdicts(nil)) != 0 {
		t.Fatal("empty log produced job verdicts")
	}

	// Swap the two jobs' outcomes: same kind counts, different per-job
	// verdicts — CompareLogs must notice.
	swapped := make([]FEvent, len(log))
	copy(swapped, log)
	for i := range swapped {
		switch swapped[i].Kind {
		case FEvJobDone:
			swapped[i].Job = 2
		case FEvJobCancel:
			swapped[i].Job = 1
		}
	}
	err := CompareLogs(log, swapped)
	if err == nil {
		t.Fatal("per-job verdict swap not detected")
	}
	if !strings.Contains(err.Error(), "at event 10 of 13/13") || !strings.Contains(err.Error(), "Kind:job-cancel") {
		t.Fatalf("divergence error does not name the swapped job-cancel: %v", err)
	}
	if err := CompareLogs(log, log); err != nil {
		t.Fatalf("identical logs diverged: %v", err)
	}
}

// TestJobRoundTripJSONL: the job tag survives the JSONL write/read cycle.
func TestJobRoundTripJSONL(t *testing.T) {
	log := jobTestLog()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(log) {
		t.Fatalf("round-tripped %d events, want %d", len(back), len(log))
	}
	for i := range log {
		if back[i].Job != log[i].Job {
			t.Fatalf("event %d job %d, want %d", i, back[i].Job, log[i].Job)
		}
	}
}

// TestPerfettoPerJobTracks: a multi-job log renders one track group per
// job (pid = perfettoPid + job) with process_name metadata, and a
// subproblem migrated onto another job's former client lands in the owning
// job's group.
func TestPerfettoPerJobTracks(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, jobTestLog()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	groups := map[int]string{}
	sawMigrated := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			groups[e.Pid], _ = e.Args["name"].(string)
		}
		if e.Ph == "X" && e.Name == "migrated-in" {
			sawMigrated = true
			if e.Pid != perfettoPid+1 {
				t.Errorf("migrated-in span in pid %d, want job 1's group %d", e.Pid, perfettoPid+1)
			}
			if e.Tid != 2 {
				t.Errorf("migrated-in span on tid %d, want client 2", e.Tid)
			}
		}
	}
	if groups[perfettoPid+1] != "job 1" || groups[perfettoPid+2] != "job 2" {
		t.Fatalf("per-job track groups missing: %v", groups)
	}
	if !sawMigrated {
		t.Fatal("the migrated subproblem never rendered a span on its new client")
	}

	// A single-job log must not grow process_name metadata (pid stays 1).
	buf.Reset()
	single := []FEvent{
		{ID: 1, Lamport: 1, Kind: FEvRunStart, N: 1},
		{ID: 2, Lamport: 2, Kind: FEvAssign, Client: 1},
		{ID: 3, Lamport: 3, Kind: FEvVerdict, Client: 1, Detail: "SAT"},
	}
	if err := WritePerfetto(&buf, single); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("process_name")) {
		t.Fatal("single-job trace grew process_name metadata")
	}
}
