package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves live introspection for a registry:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot of the same registry
//	/debug/pprof/   the standard Go profiler endpoints
//
// Callers mount their own endpoints via extra (the master adds /status,
// /jobs, /history, /alerts, and /trace and /tree when a flight recorder is
// attached). The handler is deliberately built on a private mux so
// importing this package never mutates http.DefaultServeMux.
func Handler(reg *Registry, extra ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	for _, e := range extra {
		mux.HandleFunc(e.Path, e.H)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return withRouteLatency(reg, mux)
}

// withRouteLatency wraps the mux with an SLO latency histogram per
// route. The label is the mux's registered pattern (so "/jobs/{id}"
// stays one series regardless of how many jobs exist), with requests
// that match no route collapsed into "unmatched" — label cardinality is
// bounded by the route table, never by traffic.
func withRouteLatency(reg *Registry, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		if pattern == "" {
			pattern = "unmatched"
		}
		start := time.Now()
		mux.ServeHTTP(w, r)
		reg.Histogram("gridsat_http_request_seconds",
			"HTTP endpoint latency by route", nil, L("route", pattern)).
			Observe(time.Since(start).Seconds())
	})
}

// Endpoint is an extra route mounted by Handler.
type Endpoint struct {
	Path string
	H    http.HandlerFunc
}

// A connection gets readHeaderTimeout to deliver its request headers and
// idleTimeout between requests, so a peer that connects and stalls cannot
// hold a server goroutine for ever. Writes have no deadline:
// /debug/pprof/profile and bundle capture stream for tens of seconds.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve starts an HTTP server for h on addr (":0" picks an ephemeral
// port) and returns the server plus the bound address. The caller owns
// shutdown via srv.Close.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
