package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func quickJob(clients int) JobConfig {
	return JobConfig{
		Clients: clients,
		Timeout: 60 * time.Second,
		Client: ClientConfig{
			FreeMemBytes: 64 << 20,
			ShareMaxLen:  10,
			MinRunTime:   5 * time.Millisecond, // split eagerly in tests
		},
	}
}

func TestJobSolveSAT(t *testing.T) {
	f := gen.RandomKSAT(40, 160, 3, 3)
	want, _ := brute.Solve(f, 0)
	res, err := Solve(f, quickJob(3))
	if err != nil {
		t.Fatal(err)
	}
	if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
		t.Fatalf("got %v, brute says %v", res.Status, want)
	}
	if res.Status == solver.StatusSAT {
		if err := f.Verify(res.Model); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobSolveUNSATWithSplits(t *testing.T) {
	// Pigeonhole(9): heavy enough that splits are reliably accepted while
	// the donor is still busy — php(8) can finish before parallelism is
	// ever observed, making the MaxClients assertion flaky.
	f := gen.Pigeonhole(9)
	res, err := Solve(f, quickJob(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	if res.State.Splits == 0 {
		t.Error("eager split config produced no splits")
	}
	if res.MaxClients < 2 {
		t.Errorf("max clients = %d, expected parallelism", res.MaxClients)
	}
	if res.MaxClients > 4 {
		t.Errorf("max clients %d exceeds pool", res.MaxClients)
	}
}

func TestJobAgainstBruteMany(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		f := gen.RandomKSAT(12, 50, 3, seed)
		want, _ := brute.Solve(f, 0)
		res, err := Solve(f, quickJob(3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
	}
}

func TestJobClauseSharingHappens(t *testing.T) {
	f := gen.Pigeonhole(8)
	res, err := Solve(f, quickJob(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Shared == 0 {
		t.Error("no clauses shared on a conflict-heavy instance")
	}
}

func TestJobTimeout(t *testing.T) {
	cfg := quickJob(2)
	cfg.Timeout = 150 * time.Millisecond
	res, err := Solve(gen.Pigeonhole(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUnknown {
		t.Fatalf("got %v, want timeout", res.Status)
	}
}

func TestMasterRejectsLowMemoryClient(t *testing.T) {
	m, _ := serveMaster(t, MasterConfig{Formula: twoVars(), MinMemBytes: 128 << 20, Timeout: 2 * time.Second})
	_, err := NewClient(ClientConfig{
		Transport:    m.cfg.Transport,
		MasterAddr:   m.Addr(),
		FreeMemBytes: 1 << 20, // far below the floor
	})
	if err == nil {
		t.Fatal("under-provisioned client registered successfully")
	}
}

// TestMasterNeedsFormulaAndTransport: what a master needs is a transport.
// The formula only decides what it starts with — none is a service with an
// empty queue, one is the same service with job 0 admitted.
func TestMasterNeedsFormulaAndTransport(t *testing.T) {
	f := cnf.NewFormula(1)
	f.Add(1)
	if _, err := NewMaster(MasterConfig{Formula: f}); err == nil {
		t.Fatal("master without transport accepted")
	}
	for _, tc := range []struct {
		formula *cnf.Formula
		jobs    []int
	}{{nil, nil}, {f, []int{0}}} {
		m, err := NewMaster(MasterConfig{Transport: comm.NewInprocTransport(), Formula: tc.formula})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.jobOrder, tc.jobs) {
			t.Fatalf("formula %v: jobs %v, want %v", tc.formula != nil, m.jobOrder, tc.jobs)
		}
		if j := m.jobs[0]; j != nil && (j.State != JobQueued || j.Formula != f || j.Priority != 1) {
			t.Fatalf("job 0 admitted as %+v", j)
		}
		_ = m.listener.Close()
	}
}

func TestTCPEndToEnd(t *testing.T) {
	f := gen.RandomKSAT(30, 126, 3, 7)
	want, _ := brute.Solve(f, 0)

	m, done := serveMaster(t, MasterConfig{Transport: comm.TCPTransport{}, ListenAddr: "127.0.0.1:0",
		Formula: f, Timeout: 60 * time.Second, ExpectedClients: 2})
	wg := serveClients(t, m, 2, ClientConfig{})
	o := <-done
	wg.Wait()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if (o.res.Status == solver.StatusSAT) != (want == brute.SAT) {
		t.Fatalf("TCP run: got %v, brute %v", o.res.Status, want)
	}
}

// TestTCPWorkerRowsReachStatus: a portfolio client's per-worker heartbeat
// rows must survive the real wire, not only the by-reference in-process
// pipe — /status shows both workers and the result reports the width.
func TestTCPWorkerRowsReachStatus(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{Transport: comm.TCPTransport{}, ListenAddr: "127.0.0.1:0",
		Formula: gen.Pigeonhole(9), Timeout: 60 * time.Second, ExpectedClients: 1})
	// PH9 falls within a few live heartbeats: report every 200 conflicts
	// so the rows reach /status well before the verdict.
	serveClients(t, m, 1, ClientConfig{Threads: 2}, func(cl *Client) {
		cl.slice, cl.heartbeatEvery = solver.Limits{MaxConflicts: 200}, 1
	})

	for rows := 0; rows != 2; {
		select {
		case o := <-done:
			t.Fatalf("run ended (%v) before /status showed two worker rows (last saw %d)", o.res.Status, rows)
		default:
		}
		st, _ := m.State()
		for _, c := range st.Clients {
			rows = len(c.Workers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res := (<-done).res
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
	if res.Threads != 2 {
		t.Fatalf("Result.Threads = %d, want 2", res.Threads)
	}
}

// TestFigure3SplitProtocol captures the live message flow and checks the
// paper's five-message split exchange appears: (1) split-request from the
// donor to the master, (2) split-assign from the master to the donor,
// (3) the split-payload sent peer-to-peer (not through the master),
// (4)+(5) split-done notifications from both clients to the master.
func TestFigure3SplitProtocol(t *testing.T) {
	rec := &recordingTransport{Transport: comm.NewInprocTransport()}
	cm := comm.NewMetrics(nil) // the master's side of every connection
	m, done := serveMaster(t, MasterConfig{Transport: comm.Instrument(rec, cm),
		Formula: gen.Pigeonhole(8), ExpectedClients: 2}) // conflict-heavy: guaranteed to run long enough
	wg := serveClients(t, m, 2, ClientConfig{Transport: rec, MinRunTime: time.Millisecond})
	res := (<-done).res
	wg.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run result %v", res.Status)
	}

	var kinds []string
	count := map[string]int{}
	for _, r := range rec.log() {
		kinds = append(kinds, r.kind)
		count[r.kind]++
	}
	for _, k := range []string{"split-request", "split-assign", "split-payload", "split-done"} {
		if count[k] == 0 {
			t.Fatalf("message %q never observed; trace kinds: %v", k, count)
		}
	}
	// The five-message exchange must appear in order (1) request →
	// (2) assign → (3) P2P payload → (4)/(5) done. The master's initial
	// problem assignment is also a split-payload, so scan for the
	// subsequence starting from the first split-request.
	want := []string{"split-request", "split-assign", "split-payload", "split-done", "split-done"}
	wi := 0
	for _, k := range kinds {
		if wi < len(want) && k == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		t.Errorf("five-message exchange incomplete (matched %d of %d) in trace %v", wi, len(want), kinds)
	}
	// Message (3) must be peer-to-peer: the master receives no payload.
	if n := cm.Totals().PerKind["split-payload"].MsgsRecv; n != 0 {
		t.Errorf("%d split payloads routed through the master; must be P2P", n)
	}
}

// recordingTransport wraps a transport and logs every message sent over a
// connection it made, dialled or accepted, in the order sent.
type recordingTransport struct {
	comm.Transport
	mu   sync.Mutex
	sent []record
}

// record is one message a recordingTransport saw sent: its kind and, when
// it went out encoded (SendEncoded), the frame.
type record struct {
	kind  string
	frame []byte
}

func (r *recordingTransport) Listen(addr string) (comm.Listener, error) {
	l, err := r.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &recordingListener{l, r}, nil
}

func (r *recordingTransport) Dial(addr string) (comm.Conn, error) {
	c, err := r.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{c, r}, nil
}

func (r *recordingTransport) note(rec record) {
	r.mu.Lock()
	r.sent = append(r.sent, rec)
	r.mu.Unlock()
}

// log returns what was sent so far.
func (r *recordingTransport) log() []record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.sent)
}

type recordingListener struct {
	comm.Listener
	r *recordingTransport
}

func (l *recordingListener) Accept() (comm.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{c, l.r}, nil
}

type recordingConn struct {
	comm.Conn
	r *recordingTransport
}

func (c *recordingConn) Send(m comm.Message) error {
	c.r.note(record{kind: m.Kind()})
	return c.Conn.Send(m)
}

func (c *recordingConn) SendEncoded(e *comm.EncodedMessage) error {
	c.r.note(record{kind: e.Kind(), frame: e.Frame()})
	return c.Conn.SendEncoded(e)
}

func TestMasterStateSnapshot(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{Formula: gen.Pigeonhole(8), // light enough to finish under -race slowdown
		Timeout: 5 * time.Minute, ExpectedClients: 3})
	wg := serveClients(t, m, 3, ClientConfig{})
	// Poll until work is visibly in flight.
	sawBusy := false
	for i := 0; i < 200; i++ {
		snap, _ := m.State()
		if snap.Busy > 0 && snap.Registered == 3 {
			sawBusy = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res := (<-done).res
	wg.Wait()
	if !sawBusy {
		t.Error("status snapshots never showed a busy client")
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run result %v", res.Status)
	}
}

// TestJobSolveDilemmaUNSAT drives the live master/client multi-way path:
// a dilemma job must reserve several recipients per split request, deliver
// the cofactor batch, and still reach the right verdict.
func TestJobSolveDilemmaUNSAT(t *testing.T) {
	for _, strategy := range []string{"dilemma", "dilemma-veto"} {
		t.Run(strategy, func(t *testing.T) {
			cfg := quickJob(6)
			cfg.Client.SplitStrategy = strategy
			res, err := Solve(gen.Pigeonhole(9), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != solver.StatusUNSAT {
				t.Fatalf("got %v", res.Status)
			}
			if res.State.Splits == 0 {
				t.Error("eager split config produced no splits")
			}
			if res.MaxClients < 2 {
				t.Errorf("max clients = %d, expected parallelism", res.MaxClients)
			}
		})
	}
}

// TestJobDilemmaAgainstBrute sweeps SAT and UNSAT random instances through
// a live dilemma job.
func TestJobDilemmaAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(12, 50, 3, seed)
		want, _ := brute.Solve(f, 0)
		cfg := quickJob(3)
		cfg.Client.SplitStrategy = "dilemma"
		res, err := Solve(f, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
		if res.Status == solver.StatusSAT {
			if err := f.Verify(res.Model); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestJobUnknownStrategyRejected: a bad -split-strategy value must fail
// fast at construction, not at the first split.
func TestJobUnknownStrategyRejected(t *testing.T) {
	cfg := quickJob(2)
	cfg.Client.SplitStrategy = "bogus"
	if _, err := Solve(gen.Pigeonhole(6), cfg); err == nil {
		t.Fatal("unknown split strategy accepted")
	}
}

// TestOneShotRunNamesWhyItHasNoVerdict: job 0 of a one-shot master ends
// without a verdict when a model fails Verify, and Run, whose error Solve
// returns as it is, must name the cause. A lost client is no such ending:
// the master holds the cube of what it was searching and hands it to the
// next client. The scripted clients speak the registration handshake and
// take the root like real ones, then misbehave or answer.
func TestOneShotRunNamesWhyItHasNoVerdict(t *testing.T) {
	f := twoVars()
	model := cnf.NewAssignment(2)
	model.Set(cnf.LitFromDIMACS(1))
	model.Set(cnf.LitFromDIMACS(2))
	// scripted registers a client with m that calls onRoot with the
	// payload of its first subproblem, acknowledged.
	scripted := func(t *testing.T, m *Master, onRoot func(conn comm.Conn, p comm.SplitPayload)) {
		conn, err := m.cfg.Transport.Dial(m.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		go func() {
			defer conn.Close()
			_ = conn.Send(comm.Register{Addr: "nowhere", HostName: "scripted", FreeMemBytes: 1 << 30, SpeedHint: 1})
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				if p, ok := msg.(comm.SplitPayload); ok {
					_ = conn.Send(comm.SplitDone{SplitID: p.SplitID, OK: true, Cube: p.Subs[0].Cube})
					onRoot(conn, p)
				}
			}
		}()
	}

	t.Run("invalid model", func(t *testing.T) {
		m, done := serveMaster(t, MasterConfig{Formula: f, Timeout: time.Minute})
		scripted(t, m, func(conn comm.Conn, _ comm.SplitPayload) {
			_ = conn.Send(comm.Solved{Status: solver.StatusSAT, Model: cnf.NewAssignment(3)})
		})
		o := <-done
		res, err := o.res, o.err
		if want := "core: client 1 reported an invalid model"; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Run error %v, want %q", err, want)
		}
		if res.Status != solver.StatusUnknown || res.Model != nil {
			t.Fatalf("result %v with a model of %d: want UNKNOWN and none", res.Status, len(res.Model))
		}
	})
	t.Run("lost client", func(t *testing.T) {
		m, done := serveMaster(t, MasterConfig{Formula: f, Timeout: time.Minute})
		scripted(t, m, func(conn comm.Conn, _ comm.SplitPayload) {
			_ = conn.Close() // lost with the root; the run waits for a client
			scripted(t, m, func(conn comm.Conn, p comm.SplitPayload) {
				if len(p.Subs[0].Cube) != 0 {
					t.Errorf("client 2 got cube %v, want the root's", p.Subs[0].Cube)
				}
				_ = conn.Send(comm.Solved{Status: solver.StatusSAT, Model: model})
			})
		})
		o := <-done
		res, err := o.res, o.err
		if err != nil || res.Status != solver.StatusSAT || f.Verify(res.Model) != nil {
			t.Fatalf("Run = %v (model %v), %v; want client 2's SAT", res.Status, res.Model, err)
		}
	})
}

// TestSolveRecoversALostClient takes a loss through Solve: one of two
// clients' Run goroutine exits from inside its first conflict, which hangs
// up on the master the way a killed process does. The master restarts the
// cube the client held on the other client, and the run ends UNSAT.
func TestSolveRecoversALostClient(t *testing.T) {
	opts := solver.DefaultOptions()
	var once sync.Once
	opts.OnLemma = func(cnf.Clause) { once.Do(runtime.Goexit) }
	cfg := JobConfig{Clients: 2, Timeout: time.Minute, Client: ClientConfig{SolverOptions: &opts}}
	cfg.Master.Flight = trace.NewFlight(nil)
	res, err := Solve(gen.Pigeonhole(6), cfg)
	if err != nil || res.Status != solver.StatusUNSAT {
		t.Fatalf("Solve = %v, %v; want UNSAT", res.Status, err)
	}
	if n := trace.Summarize(cfg.Master.Flight.Events()).PerKind[trace.FEvRecover]; n == 0 {
		t.Fatal("no recover event in the flight log")
	}
}
