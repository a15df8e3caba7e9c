package core

import (
	"encoding/json"
	"io"
	"os"

	"gridsat/internal/comm"
	"gridsat/internal/trace"
)

// Report is the machine-readable end-of-run summary written by
// cmd/gridsat's -report flag. It is the offline counterpart of the live
// /status endpoint: everything a results table (the paper's Table 1) or
// a batch harness needs, without scraping log output.
type Report struct {
	// Instance is the CNF path or generator spec that was solved.
	Instance string `json:"instance"`
	// Status is the run verdict: "SAT", "UNSAT" or "UNKNOWN".
	Status      string  `json:"status"`
	WallSeconds float64 `json:"wall_seconds"`
	// MaxClients is the peak number of simultaneously busy clients
	// (Table 1's last column).
	MaxClients int `json:"max_clients"`
	// Threads is the in-host portfolio width each client ran with
	// (1 = classic single-solver clients).
	Threads       int `json:"threads"`
	Splits        int `json:"splits"`
	SharedClauses int `json:"shared_clauses"`
	// Clients are the final ClusterState's per-client rows, sorted by ID.
	Clients []ClientState `json:"clients,omitempty"`
	// Comm is the per-kind wire traffic (zero when the transport was
	// not instrumented).
	Comm comm.Totals `json:"comm"`
	// Flight is the flight-recorder aggregate (event totals per kind,
	// verdict, Lamport horizon); nil when the run was untraced.
	Flight *trace.FlightSummary `json:"flight,omitempty"`
	// Latency is the run's lifecycle SLO decomposition (queue wait, first
	// assignment, solve, turnaround); nil for runners that predate it.
	Latency *JobLatency `json:"latency,omitempty"`
}

// BuildReport converts a finished run's Result into a Report.
func BuildReport(instance string, res Result) Report {
	return Report{
		Instance:      instance,
		Status:        res.Status.String(),
		WallSeconds:   res.Wall.Seconds(),
		MaxClients:    res.MaxClients,
		Threads:       res.Threads,
		Splits:        res.Splits,
		SharedClauses: res.SharedClauses,
		Clients:       res.Clients,
		Comm:          res.Comm,
		Latency:       res.Latency,
	}
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (the -report flag's target).
func (r Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
