package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPoissonWorkloadDeterministic: the arrival trace is a pure function
// of (n, meanGap, seed) — the property every scheduler comparison rests on.
func TestPoissonWorkloadDeterministic(t *testing.T) {
	a := PoissonWorkload(6, 25, 5)
	b := PoissonWorkload(6, 25, 5)
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].ArrivalVSec != b[i].ArrivalVSec ||
			a[i].Priority != b[i].Priority {
			t.Fatalf("job %d diverges: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].ArrivalVSec <= a[i-1].ArrivalVSec {
			t.Fatalf("arrivals not strictly increasing at %d: %v then %v",
				i, a[i-1].ArrivalVSec, a[i].ArrivalVSec)
		}
	}
}

// TestAblationSched runs the sched experiment as benchtab does and checks
// every job is solved and the run is deterministic across reruns.
func TestAblationSched(t *testing.T) {
	opts := Options{Seed: 1, SchedGapVSec: 8}
	run := func() []ArmRow { return sweep(t, "sched", opts) }
	rows := run()
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	jobs := rows[0].Result.State.Jobs
	for _, j := range jobs {
		if j.Verdict != "SAT" && j.Verdict != "UNSAT" {
			t.Errorf("job %s: verdict %q", j.Name, j.Verdict)
		}
	}
	if len(jobs) != SchedJobs {
		t.Fatalf("%d jobs, want %d", len(jobs), SchedJobs)
	}
	// The service metrics the table prints: makespan from the first
	// submission to the last finish, and the mean turnaround.
	first, last, sum := jobs[0].SubmittedAt, 0.0, 0.0
	for _, j := range jobs {
		first, last, sum = min(first, j.SubmittedAt), max(last, j.FinishedAt), sum+j.TurnaroundSec
	}
	if makespan, mean := last-first, sum/float64(len(jobs)); makespan <= 0 || mean <= 0 {
		t.Fatalf("empty service metrics: makespan %.1f, mean turnaround %.1f", makespan, mean)
	}
	a, _ := json.Marshal(rows)
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatal("sched ablation is not deterministic for a fixed trace")
	}
	e, _ := Lookup("sched")
	if table := e.Render(rows, opts); !strings.Contains(table, "| 8 | 8 |") {
		t.Fatalf("rendered table lost the row:\n%s", table)
	}
}
