package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("x_total", "help") != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if reg.Counter("x_total", "help", L("k", "v")) == c {
		t.Fatal("different labels must return a different series")
	}
	g := reg.Gauge("g", "")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	reg.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("sum = %v", got)
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot histograms: %d", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	wantCum := []int64{1, 3, 4} // cumulative counts at le=0.1, 1, 10
	for i, b := range hp.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%g count=%d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if hp.Count != 5 {
		t.Errorf("histogram point count=%d", hp.Count)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9.eE+-]+)$`)

// CheckPrometheusText fails unless every non-comment, non-blank line of
// text parses as a Prometheus sample. Shared with the core live tests.
func CheckPrometheusText(t *testing.T, text string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable metrics line: %q", line)
		}
		n++
	}
	if n == 0 {
		t.Error("no metric samples in exposition")
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gridsat_msgs_total", "messages", L("kind", "share-clauses"), L("dir", "send")).Add(3)
	reg.Gauge("gridsat_busy", "busy clients").Set(2)
	reg.Histogram("gridsat_lat_seconds", "latency", []float64{0.5, 1}).Observe(0.7)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	CheckPrometheusText(t, out)
	for _, want := range []string{
		`gridsat_msgs_total{dir="send",kind="share-clauses"} 3`,
		"# TYPE gridsat_msgs_total counter",
		"# TYPE gridsat_busy gauge",
		"# TYPE gridsat_lat_seconds histogram",
		`gridsat_lat_seconds_bucket{le="+Inf"} 1`,
		`gridsat_lat_seconds_bucket{le="0.5"} 0`,
		"gridsat_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "", L("path", `a"b\c`)).Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c"`) {
		t.Fatalf("unescaped label in %q", b.String())
	}
}

func TestJSONSnapshotRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "", L("k", "v")).Add(9)
	reg.Gauge("g", "").Set(-4)
	reg.Histogram("h", "", []float64{1, 2}).Observe(1.5)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if got := snap.CounterValue("c_total", L("k", "v")); got != 9 {
		t.Fatalf("counter value via snapshot = %d", got)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != -4 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
}

func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("n_total", "")
			h := reg.Histogram("h", "", []float64{10, 100})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 200))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n_total", "").Value(); got != 8000 {
		t.Fatalf("racy counter: %d", got)
	}
	if got := reg.Histogram("h", "", nil).Count(); got != 8000 {
		t.Fatalf("racy histogram: %d", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "").Add(2)
	h := Handler(reg, Endpoint{Path: "GET /extra", H: func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "mounted")
	}})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "served_total 2") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/extra"); code != 200 || body != "mounted" {
		t.Fatalf("/extra: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "served_total") {
		t.Fatalf("/metrics.json: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

func TestServeEphemeral(t *testing.T) {
	reg := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", Handler(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestServeDropsStalledHeader: a peer that connects and sends half a
// request header is hung up on once readHeaderTimeout passes, instead of
// holding a server goroutine for as long as it likes.
func TestServeDropsStalledHeader(t *testing.T) {
	t.Parallel()
	srv, addr, err := Serve("127.0.0.1:0", Handler(NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns nil when the server hangs up
	if err != nil {
		t.Fatalf("server kept the stalled connection open for %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("hung up after %v, before the header deadline", waited)
	}
}
