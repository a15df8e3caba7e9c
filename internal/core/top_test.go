package core

import (
	"strings"
	"testing"

	"gridsat/internal/comm"
)

// topTestState builds the canned ClusterState the golden frame is
// rendered from.
func topTestState() ClusterState {
	return ClusterState{
		WallSeconds: 95.2, Coverage: 0.421875,
		ClosedSubproblems: 57, MaxClosedDepth: 12,
		RatePerSec: 0.0034, ETASeconds: 170.0,
		Registered: 4, Busy: 3, Outstanding: 4,
		Backlog: 2, Splits: 14, Shared: 1234,
		SolverDeltas: comm.SolverDeltas{Conflicts: 1234567, Implications: 45678901},
		Efficacy: ShareEfficacy{Imported: 2345, ImportedUseful: 966,
			ImportedImplications: 3609876, ImportedResolutions: 45678,
			UsefulRatio: 0.412, ImplicationShare: 0.079},
		Clients: []ClientState{
			{ID: 1, Busy: true, Depth: 5, ConflictsPerSec: 1234.5, Utilization: 1.0, ImportUseRatio: 0.412, MemBytes: 12 << 20, DBLearnts: 4567},
			{ID: 2, Busy: true, Depth: 9, ConflictsPerSec: 123.4, Utilization: 0.0999, ImportUseRatio: 0.10, MemBytes: 9 << 20, Straggler: true, DBLearnts: 123},
			// Client 3 runs a two-worker in-host portfolio: its row carries
			// per-worker gauges rendered as indented sub-rows.
			{ID: 3, Busy: true, Depth: 7, ConflictsPerSec: 987.6, Utilization: 0.8, ImportUseRatio: 0.25, MemBytes: 31 << 20, DBLearnts: 2048,
				Workers: []comm.WorkerReport{
					{Worker: 0, Profile: "w0: pathfinder (base options)",
						Conflicts: 1500, Restarts: 12, Learnts: 1024, MemBytes: 16 << 20},
					{Worker: 1, Profile: "w1: seed=0xdeadbeef phase=neg save=false decay=128 restart=luby/512 import=96 export<=20",
						Conflicts: 548, Restarts: 7, Learnts: 900, MemBytes: 15 << 20},
				}},
			{ID: 4, Busy: false, Depth: 0, ConflictsPerSec: 0, Utilization: 0, ImportUseRatio: 0, MemBytes: 1 << 20, DBLearnts: 0},
		},
	}
}

// topGolden is the expected 80-column frame for topTestState. The
// renderer is pure, so any layout change must update this fixture
// deliberately.
const topGolden = "" +
	"GridSAT running  wall 1m35s  [=================------------------------]  42.2% \n" +
	"closed 57 subproblems  max depth 12  rate 0.34%/s  ETA 2m50s                    \n" +
	"clients 4 registered, 3 busy  outstanding 4  backlog 2  splits 14  shared 1.2k  \n" +
	"conflicts 1.2M  implications 45.7M  imported 2.3k  useful 41.2%  impl-share 7.9%\n" +
	"                                                                                \n" +
	"  ID  STATE  DEPTH     CONF/S   UTIL  IMP-USE       MEM   LEARNTS               \n" +
	"   1  busy       5     1234.5   100%    41.2%   12.0MiB      4567               \n" +
	"   2  SLOW       9      123.4    10%    10.0%    9.0MiB       123               \n" +
	"   3  busy       7      987.6    80%    25.0%   31.0MiB      2048               \n" +
	"      w0  pathfinder      conf 1.5k    rst 12   16.0MiB      1024               \n" +
	"      w1  neg+luby        conf 548     rst 7    15.0MiB       900               \n" +
	"   4  idle       0        0.0     0%     0.0%    1.0MiB         0               \n"

func TestRenderTopGolden(t *testing.T) {
	st := topTestState()
	got := RenderTop(st, nil, 80)
	if got != topGolden {
		t.Errorf("frame drifted from golden.\ngot:\n%s\nwant:\n%s", got, topGolden)
		gl := strings.Split(got, "\n")
		wl := strings.Split(topGolden, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first diff at line %d:\ngot:  %q\nwant: %q", i+1, gl[i], wl[i])
				break
			}
		}
	}
}

// topJobsGolden is the expected 80-column frame when the state carries
// per-job rows worth a table (anything but a lone job 0): the job
// table appears between the cluster summary and the client table, long
// names truncate, and finished jobs show their verdict.
const topJobsGolden = "" +
	"GridSAT running  wall 1m35s  [=================------------------------]  42.2% \n" +
	"closed 57 subproblems  max depth 12  rate 0.34%/s  ETA 2m50s                    \n" +
	"clients 4 registered, 3 busy  outstanding 4  backlog 2  splits 14  shared 1.2k  \n" +
	"conflicts 1.2M  implications 45.7M  imported 2.3k  useful 41.2%  impl-share 7.9%\n" +
	"                                                                                \n" +
	" JOB  NAME        STATE      PRI   CLI     COV    CONF/S  VERDICT               \n" +
	"   1  php9        running      1     2   25.3%     812.5  -                     \n" +
	"   2  factoring-  running      3     1    4.0%      96.1  -                     \n" +
	"   3  rand3sat    done         2     0    0.0%       0.0  SAT                   \n" +
	"                                                                                \n" +
	"  ID  STATE  DEPTH     CONF/S   UTIL  IMP-USE       MEM   LEARNTS               \n" +
	"   1  busy       5     1234.5   100%    41.2%   12.0MiB      4567               \n" +
	"   2  SLOW       9      123.4    10%    10.0%    9.0MiB       123               \n" +
	"   3  busy       7      987.6    80%    25.0%   31.0MiB      2048               \n" +
	"      w0  pathfinder      conf 1.5k    rst 12   16.0MiB      1024               \n" +
	"      w1  neg+luby        conf 548     rst 7    15.0MiB       900               \n" +
	"   4  idle       0        0.0     0%     0.0%    1.0MiB         0               \n"

// TestRenderTopJobsGolden locks the frame layout with a job table. A state
// whose only job is job 0 must NOT grow the section — that is the one-shot
// frame, pinned byte-for-byte by TestRenderTopGolden.
func TestRenderTopJobsGolden(t *testing.T) {
	st := topTestState()
	st.Jobs = []JobSnapshot{
		{ID: 1, Name: "php9", Priority: 1, State: "running", Clients: 2, Coverage: 0.253, ConflictRate: 812.5},
		{ID: 2, Name: "factoring-xl", Priority: 3, State: "running", Clients: 1, Coverage: 0.04, ConflictRate: 96.1},
		{ID: 3, Name: "rand3sat", Priority: 2, State: "done", Verdict: "SAT"},
	}
	got := RenderTop(st, nil, 80)
	if got != topJobsGolden {
		gl := strings.Split(got, "\n")
		wl := strings.Split(topJobsGolden, "\n")
		t.Errorf("job-table frame drifted from golden.\ngot:\n%s", got)
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first diff at line %d:\ngot:  %q\nwant: %q", i+1, gl[i], wl[i])
				break
			}
		}
	}

	// A lone job 0 keeps the classic frame.
	st.Jobs = []JobSnapshot{{ID: 0, State: "running"}}
	if RenderTop(st, nil, 80) != topGolden {
		t.Error("a lone job-0 row changed the one-shot frame")
	}
}

// TestRenderTopFixedWidth checks the overwrite invariant: every line of a
// frame is exactly the requested width, whatever the payload.
func TestRenderTopFixedWidth(t *testing.T) {
	st := topTestState()
	for _, w := range []int{40, 60, 80, 120} {
		frame := RenderTop(st, nil, w)
		for i, line := range strings.Split(strings.TrimSuffix(frame, "\n"), "\n") {
			if len(line) != w {
				t.Fatalf("width %d, line %d is %d columns: %q", w, i+1, len(line), line)
			}
		}
	}
	// Absurdly narrow requests clamp to the 40-column floor.
	frame := RenderTop(st, nil, 1)
	for _, line := range strings.Split(strings.TrimSuffix(frame, "\n"), "\n") {
		if len(line) != 40 {
			t.Fatalf("clamped frame line is %d columns", len(line))
		}
	}
}

// TestRenderTopEmpty renders the zero state — the frame a dashboard
// shows the instant it connects, before any heartbeat arrives.
func TestRenderTopEmpty(t *testing.T) {
	frame := RenderTop(ClusterState{ETASeconds: -1}, nil, 80)
	if !strings.Contains(frame, "GridSAT running") {
		t.Error("empty frame lost the headline")
	}
	if !strings.Contains(frame, "ETA --") {
		t.Error("unknown ETA not rendered as --")
	}
}

// TestRenderTopVerdict shows the final frame carries the verdict and a
// saturated bar.
func TestRenderTopVerdict(t *testing.T) {
	st := topTestState()
	st.Verdict = "UNSAT"
	st.Coverage = 1.0
	st.ETASeconds = 0
	frame := RenderTop(st, nil, 80)
	if !strings.Contains(frame, "GridSAT UNSAT") {
		t.Error("verdict missing from headline")
	}
	if !strings.Contains(frame, "ETA done") {
		t.Error("exhausted ETA not rendered as done")
	}
	if !strings.Contains(frame, "100.0%") {
		t.Error("full coverage not shown")
	}
	if strings.Contains(frame, "-]") {
		t.Error("bar not saturated at full coverage")
	}
}

// TestRenderTopSparks covers the history-backed frame: nil and empty
// histories render the same history-free frame, and samples add the
// cluster trend line and the per-client HISTORY column while keeping every
// line at the fixed width.
func TestRenderTopSparks(t *testing.T) {
	st := topTestState()
	if RenderTop(st, []Sample{}, 80) != RenderTop(st, nil, 80) {
		t.Fatal("an empty history changed the frame")
	}
	var hist []Sample
	for i, cov := range []float64{0, 0.1, 0.2, 0.3, 0.42} {
		s := Sample{TSec: float64(i), Coverage: cov, ConflictRate: 900 + 100*float64(i)}
		if i >= 2 { // clients 1 and 2 joined at the third tick
			s.Clients = []SampleClient{
				{ID: 1, ConflictsPerSec: 1000 + 100*float64(i)},
				{ID: 2, ConflictsPerSec: 400 / float64(i)},
			}
		}
		hist = append(hist, s)
	}
	frame := RenderTop(st, hist, 80)
	if !strings.Contains(frame, "trend  cov [                    .-+#]  conf/s [") {
		t.Errorf("trend line missing or misdrawn:\n%s", frame)
	}
	if !strings.Contains(frame, "HISTORY") {
		t.Error("per-client HISTORY column missing")
	}
	// Client 1's three samples rise; a client with no samples still renders
	// (blank spark cell).
	if !strings.Contains(frame, "12.0MiB      4567          -#") {
		t.Errorf("client 1 spark missing:\n%s", frame)
	}
	if !strings.Contains(frame, "   4  idle") {
		t.Error("history-less client row missing")
	}
	for i, line := range strings.Split(strings.TrimSuffix(frame, "\n"), "\n") {
		if len(line) != 80 {
			t.Fatalf("spark frame line %d is %d columns: %q", i+1, len(line), line)
		}
	}
	// One more line than the plain frame: the trend line (the HISTORY
	// column widens rows, it does not add them).
	plain := strings.Count(RenderTop(st, nil, 80), "\n")
	if got := strings.Count(frame, "\n"); got != plain+1 {
		t.Errorf("spark frame has %d lines, want %d", got, plain+1)
	}
}

func TestSpark(t *testing.T) {
	cases := []struct {
		vals  []float64
		width int
		want  string
	}{
		{nil, 4, "    "},
		{[]float64{1, 1, 1}, 3, "   "},                     // flat → lowest ink
		{[]float64{0, 7}, 2, " #"},                         // full range
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8, " .:-=+*#"}, // whole ramp
		{[]float64{5}, 4, "    "},                          // single point, left-padded
		{[]float64{0, 1, 2, 3}, 2, " #"},                   // truncates to newest, rescaled
	}
	for i, c := range cases {
		got := spark(c.vals, c.width)
		if got != c.want {
			t.Errorf("case %d: spark(%v, %d) = %q, want %q", i, c.vals, c.width, got, c.want)
		}
		if len(got) != c.width {
			t.Errorf("case %d: width %d, want %d", i, len(got), c.width)
		}
	}
	if s := spark([]float64{1, 2}, 0); s != "" {
		t.Errorf("zero width = %q", s)
	}
}

func TestSparkASCIIOnly(t *testing.T) {
	// gridsat top is byte-width fixed; the ramp must stay single-byte.
	for _, r := range sparkRamp {
		if r > 127 {
			t.Fatalf("spark ramp contains non-ASCII rune %q", r)
		}
	}
	s := spark([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10)
	if len(s) != len([]rune(s)) {
		t.Fatalf("spark output is not byte-per-column: %q", s)
	}
}

func TestTopFormatters(t *testing.T) {
	if got := fmtCount(999); got != "999" {
		t.Errorf("fmtCount(999) = %q", got)
	}
	if got := fmtCount(1_500_000_000); got != "1.5G" {
		t.Errorf("fmtCount(1.5e9) = %q", got)
	}
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(3 << 30); got != "3.0GiB" {
		t.Errorf("fmtBytes(3GiB) = %q", got)
	}
	if got := fmtSeconds(3725); got != "1h02m" {
		t.Errorf("fmtSeconds(3725) = %q", got)
	}
	if got := fmtPercent(0.0000004); got != "4.0e-05%" {
		t.Errorf("fmtPercent tiny = %q", got)
	}
	if got := progressBar(0.5, 10); got != "=====-----" {
		t.Errorf("progressBar half = %q", got)
	}
}
