package harness

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed crossing of a layer boundary, recorded by the harness
// from outside the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Job    string `json:"job,omitempty"`
	// Start and End are seconds since the recorder was created.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Self is End-Start minus the part of the interval child spans cover.
	Self float64 `json:"self"`
}

// Recorder keeps spans in memory until Write. A nil *Recorder records
// nothing, so call sites need no tracing-on check.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name, layer, job string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Layer: layer, Job: job, Start: now, End: -1})
	return len(r.spans)
}

// End closes a span opened by Start.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns the closed spans with self-times filled in.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	SelfTimes(out)
	return out
}

// SelfTimes fills each span's Self: its duration minus the union of its
// direct children's intervals, clipped to the span (children may overlap
// one another when jobs run concurrently).
func SelfTimes(spans []Span) {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := 0.0, s.Start
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// SelfByName sums self-time per span name.
func SelfByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}

// Write stores the spans and the per-name self-time totals as JSON.
func (r *Recorder) Write(path string) error {
	spans := r.Spans()
	doc := struct {
		SelfSecondsByName map[string]float64 `json:"self_seconds_by_name"`
		Spans             []Span             `json:"spans"`
	}{SelfByName(spans), spans}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
