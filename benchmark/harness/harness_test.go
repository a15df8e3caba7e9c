package harness

import (
	"math"
	"strings"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	// The rule: the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{7, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([10, 12, 11, 13, 9], n=4) == [9.5, 11.0, 12.5]
	if got, want := Spread([]float64{10, 12, 11, 13, 9}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if Spread([]float64{5}) != 0 || Spread(nil) != 0 {
		t.Error("spread of fewer than two values must be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("Quantile must not reorder its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps span 2: the union covers 1..6
		{ID: 4, Parent: 1, Start: 8, End: 12}, // clipped to its parent's end
		{ID: 5, Parent: 2, Start: 2, End: 3},
	}
	SelfTimes(spans)
	for id, want := range map[int]float64{1: 3, 2: 2, 3: 3, 4: 4, 5: 1} {
		if got := spans[id-1].Self; math.Abs(got-want) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", id, got, want)
		}
	}
}

func TestRecorderNilAndOpenSpans(t *testing.T) {
	var nilRec *Recorder
	nilRec.End(nilRec.Start("x", "l", "", 0)) // must not panic
	if nilRec.Spans() != nil {
		t.Error("nil recorder has spans")
	}
	r := NewRecorder()
	a := r.Start("a", "l", "", 0)
	r.Start("never-closed", "l", "", a)
	r.End(a)
	if got := r.Spans(); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("Spans() = %+v, want the one closed span", got)
	}
}

const scrapeA = `# HELP gridsat_comm_msgs_total messages
# TYPE gridsat_comm_msgs_total counter
gridsat_comm_msgs_total{dir="recv",kind="solved"} 4
gridsat_comm_msgs_total{dir="send",kind="base-problem"} 4
gridsat_master_heartbeats_total 7
gridsat_build_info{go="go1.24.0",version="v0 (devel) x"} 1
`

const scrapeB = `gridsat_comm_msgs_total{dir="recv",kind="solved"} 10
gridsat_comm_msgs_total{dir="send",kind="base-problem"} 9
gridsat_comm_msgs_total{dir="send",kind="split-assign"} 2
gridsat_master_heartbeats_total 1.9e+01
not a metric line
`

func TestMetricsDelta(t *testing.T) {
	a, b := ParseMetrics(strings.NewReader(scrapeA)), ParseMetrics(strings.NewReader(scrapeB))
	if len(a) != 4 {
		t.Fatalf("parsed %d series, want 4: %v", len(a), a)
	}
	if v := a[`gridsat_build_info{go="go1.24.0",version="v0 (devel) x"}`]; v != 1 {
		t.Errorf("label values with spaces: got %v, want 1", v)
	}
	d := Delta(a, b)
	if got := d.Sum("gridsat_comm_msgs_total"); got != 13 {
		t.Errorf("all msgs delta = %v, want 13", got)
	}
	if got := d.Sum("gridsat_comm_msgs_total", `dir="send"`); got != 7 {
		t.Errorf("sent msgs delta = %v, want 7 (a series new in the second scrape counts from 0)", got)
	}
	if got := d.Sum("gridsat_master_heartbeats_total"); got != 12 {
		t.Errorf("heartbeats delta = %v, want 12", got)
	}
	if got := d.Sum("gridsat_comm_msgs"); got != 0 {
		t.Errorf("a name prefix must not match: got %v", got)
	}
}
