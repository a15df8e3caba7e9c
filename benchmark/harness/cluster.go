package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"time"
)

// ClusterSize is the number of `gridsat client -threads 1` processes
// beside the one `gridsat serve`: one solver per core of the 2-core box
// the workloads were sized on.
const ClusterSize = 2

// Cluster is a loopback GridSAT deployment: serve + ClusterSize clients.
type Cluster struct {
	Serve   *Proc
	Clients []*Proc
	// API is the base URL of the job API, e.g. http://127.0.0.1:41231.
	API  string
	http *http.Client
}

var (
	reClientsOn = regexp.MustCompile(`gridsat serve: clients on (\S+)`)
	reJobAPI    = regexp.MustCompile(`gridsat serve: job API on (http://[^/\s]+)/jobs`)
	reClientUp  = regexp.MustCompile(`gridsat client (\d+) registered`)
)

// BootCluster starts serve and the clients on ephemeral ports (the real
// addresses come from serve's stderr banner) and returns once /healthz
// answers and /status shows every client registered. flightPath, when not
// empty, turns on the program's own flight recorder (serve -trace).
//
// serve runs with -min-mem 0: with the default 128 MiB floor a client
// that has heartbeated once is never given work again (defect D1 in the
// README), so a second job would queue for ever.
func BootCluster(g *Group, gridsat, flightPath string, rec *Recorder, parent int) (*Cluster, error) {
	args := []string{"serve", "-listen", "127.0.0.1:0", "-api-addr", "127.0.0.1:0", "-min-mem", "0"}
	if flightPath != "" {
		args = append(args, "-trace", flightPath)
	}
	sp := rec.Start("boot.serve", "core", "", parent)
	serve, err := g.Start("serve", gridsat, args...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Serve: serve, http: &http.Client{
		Timeout: 10 * time.Second,
		// The load generator is one process with at most two connections.
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
	}}
	listen, err := serve.WaitLine(reClientsOn, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if c.API, err = serve.WaitLine(reJobAPI, 10*time.Second); err != nil {
		return nil, err
	}
	if err := c.poll("/healthz", func([]byte) bool { return true }); err != nil {
		return nil, err
	}
	rec.End(sp)
	sp = rec.Start("boot.client", "core", "", parent)
	for i := 0; i < ClusterSize; i++ {
		cl, err := g.Start(fmt.Sprintf("client%d", i+1), gridsat,
			"client", "-master", listen, "-listen", "127.0.0.1:0", "-threads", "1")
		if err != nil {
			return nil, err
		}
		c.Clients = append(c.Clients, cl)
	}
	for _, cl := range c.Clients {
		if _, err := cl.WaitLine(reClientUp, 10*time.Second); err != nil {
			return nil, err
		}
	}
	err = c.poll("/status", func(body []byte) bool {
		var s Status
		return json.Unmarshal(body, &s) == nil && s.Registered == ClusterSize
	})
	rec.End(sp)
	return c, err
}

// poll GETs path every few milliseconds until ok accepts a 200 body.
func (c *Cluster) poll(path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, code, err := c.get(path)
		if err == nil && code == http.StatusOK && ok(body) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready: GET %s: code %d err %v\n%s", path, code, err, c.Serve.Tail(10))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop shuts the cluster down: SIGINT to serve (its clean drain tells the
// clients to exit), then to whichever client is still there, with a kill
// after the grace period.
func (c *Cluster) Stop() {
	c.Serve.Stop(3 * time.Second)
	for _, cl := range c.Clients {
		cl.Stop(2 * time.Second)
	}
	c.http.CloseIdleConnections()
}

func (c *Cluster) get(path string) ([]byte, int, error) {
	resp, err := c.http.Get(c.API + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (c *Cluster) getJSON(path string, out any) error {
	body, code, err := c.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// Submit POSTs a DIMACS body to /jobs and returns the job ID.
func (c *Cluster) Submit(name string, dimacs []byte) (int, error) {
	resp, err := c.http.Post(c.API+"/jobs?name="+name, "text/plain", bytes.NewReader(dimacs))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /jobs: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var r struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.ID, nil
}

// Job is the part of GET /jobs/{id} (and /result) the harness reads.
type Job struct {
	ID            int     `json:"id"`
	State         string  `json:"state"`
	Verdict       string  `json:"verdict"`
	SubmittedAt   float64 `json:"submitted_at"`
	FirstAssignAt float64 `json:"first_assign_at"`
	QueueWaitSec  float64 `json:"queue_wait_sec"`
	SolveSec      float64 `json:"solve_sec"`
	TurnaroundSec float64 `json:"turnaround_sec"`
	Model         []int   `json:"model"`
}

// Job fetches GET /jobs/{id}.
func (c *Cluster) Job(id int) (Job, error) {
	var j Job
	return j, c.getJSON(fmt.Sprintf("/jobs/%d", id), &j)
}

// Result fetches GET /jobs/{id}/result, which carries a SAT model.
func (c *Cluster) Result(id int) (Job, error) {
	var j Job
	return j, c.getJSON(fmt.Sprintf("/jobs/%d/result", id), &j)
}

// Status is the part of GET /status the harness reads.
type Status struct {
	Registered          int
	Splits              int
	Shared              int
	SharedDropped       int64
	CodecFallbackFrames int64
	FlightEvents        int
}

// Status fetches GET /status.
func (c *Cluster) Status() (Status, error) {
	var s Status
	return s, c.getJSON("/status", &s)
}

// Metrics scrapes GET /metrics.
func (c *Cluster) Metrics() (Metrics, error) {
	body, code, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	return ParseMetrics(bytes.NewReader(body)), nil
}
