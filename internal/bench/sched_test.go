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

// TestAblationSched runs the scheduler on a short trace and checks every
// job is solved and the run is deterministic across reruns.
func TestAblationSched(t *testing.T) {
	jobs := PoissonWorkload(4, 20, 3)
	run := func() SchedResult { return AblationSched(jobs, Options{Seed: 1}) }
	r := run()
	if r.Jobs != 4 || r.Solved != 4 {
		t.Fatalf("solved %d/%d jobs: %+v", r.Solved, r.Jobs, r.Result.State.Jobs)
	}
	if r.MakespanVSec <= 0 || r.MeanTurnaroundVSec <= 0 {
		t.Fatalf("empty service metrics: %+v", r)
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatal("sched ablation is not deterministic for a fixed trace")
	}
	if table := RenderSchedAblation(r); !strings.Contains(table, "| 4 | 4 |") {
		t.Fatalf("rendered table lost the row:\n%s", table)
	}
}
