package core

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/trace"
)

// This file is the live shell around Master: the listener and per-client
// read/write goroutines that turn a comm.Transport into masterEvents, the
// wall clock, the bounded outbound queues behind the outbox, the event
// loop with its timers, and the HTTP introspection server. None of the
// protocol lives here — see master.go.

// masterLink is the live shell's half of a client: its connection and the
// queue writeLoop drains, so a slow peer never blocks the event loop.
type masterLink struct {
	conn comm.Conn
	out  chan comm.Message
}

// NewMaster builds the live shell around a master and starts listening;
// the returned master's Addr is dialable immediately, so clients may be
// launched before Run.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: master needs a transport")
	}
	m := newMaster(cfg, nil, nil, nil)
	l, err := cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	m.listener = l
	m.events = make(chan masterEvent, 256)
	m.stopped = make(chan struct{})
	m.links = map[int]*masterLink{}
	m.build = obs.RegisterBuildInfo(m.reg)
	if cfg.MetricsAddr != "" {
		extra := append(m.jobEndpoints(), []obs.Endpoint{
			{Path: "/status", H: func(w http.ResponseWriter, _ *http.Request) {
				serveLoop(w, m.State)
			}},
			{Path: "GET /healthz", H: func(w http.ResponseWriter, _ *http.Request) {
				// Liveness: the introspection server answering is the
				// signal; no event-loop round-trip, so a wedged loop
				// still lets /healthz distinguish process-up from gone.
				writeJSON(w, http.StatusOK, map[string]any{
					"status": "ok", "build": m.build, "draining": m.draining.Load(),
				})
			}},
			{Path: "GET /history", H: func(w http.ResponseWriter, _ *http.Request) {
				serveLoop(w, func() (historyResponse, error) {
					samples, err := m.History()
					return historyResponse{Samples: samples}, err
				})
			}},
			{Path: "GET /alerts", H: func(w http.ResponseWriter, _ *http.Request) {
				serveLoop(w, func() (alertsResponse, error) {
					alerts, err := m.Alerts()
					return alertsResponse{Alerts: alerts}, err
				})
			}},
			{Path: "POST /debug/bundle", H: func(w http.ResponseWriter, r *http.Request) {
				dir, err := m.TriggerBundle(r.URL.Query().Get("reason"))
				switch {
				case errors.Is(err, ErrDraining):
					writeError(w, http.StatusConflict, err)
				case errors.Is(err, ErrNoBundleDir):
					writeError(w, http.StatusServiceUnavailable, err)
				case err != nil:
					writeError(w, http.StatusInternalServerError, err)
				default:
					writeJSON(w, http.StatusOK, map[string]string{"bundle": dir})
				}
			}},
		}...)
		if f := m.flight; f != nil {
			extra = append(extra,
				obs.Endpoint{Path: "/trace", H: func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/x-ndjson")
					_ = f.WriteJSONL(w)
				}},
				obs.Endpoint{Path: "/trace.json", H: func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_ = trace.WritePerfetto(w, f.Events())
				}},
				obs.Endpoint{Path: "/tree", H: func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_ = trace.BuildLineage(f.Events()).WriteJSON(w)
				}},
				obs.Endpoint{Path: "/tree.dot", H: func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "text/vnd.graphviz")
					_ = trace.BuildLineage(f.Events()).WriteDOT(w)
				}},
			)
		}
		srv, addr, err := obs.Serve(cfg.MetricsAddr,
			obs.Handler(m.reg, extra...))
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("core: metrics server: %w", err)
		}
		m.httpSrv, m.httpAddr = srv, addr
		m.log.Info("introspection server up", "addr", addr)
	}
	m.loops.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the master's dialable address.
func (m *Master) Addr() string { return m.listener.Addr() }

// MetricsAddr returns the bound introspection address ("" when
// MasterConfig.MetricsAddr was empty).
func (m *Master) MetricsAddr() string { return m.httpAddr }

// post hands an event from a shell goroutine to the event loop. It reports
// false once Run has stopped serving: nothing reads the queue any more, so
// the event is dropped rather than blocking its goroutine for ever.
func (m *Master) post(ev masterEvent) bool {
	select {
	case m.events <- ev:
		return true
	case <-m.stopped:
		return false
	}
}

func (m *Master) acceptLoop() {
	defer m.loops.Done()
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return
		}
		if !m.post(masterEvent{conn: conn}) {
			_ = conn.Close()
			return
		}
	}
}

// attach admits a freshly accepted connection: the core issues its client
// ID, the shell gives it a link and the two goroutines that serve it.
func (m *Master) attach(conn comm.Conn) {
	id := m.connect()
	// 1024 queued messages absorb a share burst to a slow peer before
	// best-effort drops start (see enqueue).
	l := &masterLink{conn: conn, out: make(chan comm.Message, 1024)}
	m.links[id] = l
	m.loops.Add(2)
	go m.readLoop(id, conn)
	go m.writeLoop(l)
}

// readLoop reads until the connection ends, also after Run has stopped
// serving: what a client sent before it saw Shutdown is still consumed
// (and counted by an instrumented transport) before Run returns.
func (m *Master) readLoop(id int, conn comm.Conn) {
	defer m.loops.Done()
	for {
		msg, err := conn.Recv()
		if err != nil {
			m.post(masterEvent{clientID: id, err: err})
			return
		}
		m.post(masterEvent{clientID: id, msg: msg})
	}
}

// writeLoop drains a client's outbound queue so a slow or stalled client
// can never block the master's single-threaded event loop.
func (m *Master) writeLoop(l *masterLink) {
	defer m.loops.Done()
	for msg := range l.out {
		var err error
		if e, ok := msg.(*comm.EncodedMessage); ok {
			// Pre-serialized broadcast: write the shared frame verbatim
			// instead of re-encoding per peer.
			err = l.conn.SendEncoded(e)
		} else {
			err = l.conn.Send(msg)
		}
		if err != nil {
			return
		}
	}
}

// enqueue is the live outbox: it queues msg for client `to`. Best-effort
// clause shares (plain or pre-encoded) are dropped when the queue is full,
// and the drop is counted; control messages wait for room.
func (m *Master) enqueue(to int, msg comm.Message) {
	l := m.links[to]
	if l == nil {
		return
	}
	select {
	case l.out <- msg:
	default:
		if msg.Kind() == (comm.ShareClauses{}).Kind() {
			m.sharedDropped++
			return
		}
		l.out <- msg
	}
}

// Run serves the protocol until termination. It owns all master state;
// every message is handled on this single goroutine. It returns once the
// shell's accept, read and write goroutines have exited, so nothing of
// this master touches a connection, a metric or the event queue afterwards.
func (m *Master) Run() (Result, error) {
	m.started = time.Now()
	m.femit(trace.FEvent{Kind: trace.FEvRunStart, N: int64(m.cfg.ExpectedClients)})
	defer m.stopLoops()
	var timeout <-chan time.Time
	if m.cfg.Timeout > 0 {
		t := time.NewTimer(m.cfg.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	defer func() {
		if m.httpSrv != nil {
			_ = m.httpSrv.Close()
		}
	}()
	sampler := time.NewTicker(samplePeriod)
	defer sampler.Stop()
	for {
		select {
		case <-sampler.C:
			m.sampleTick()
		case ev := <-m.events:
			done, err := m.handle(ev)
			if err != nil {
				m.finishResult()
				m.shutdownAll()
				return m.result, err
			}
			if done {
				m.result.Wall = time.Since(m.started)
				m.finishResult()
				m.log.Info("run decided", "status", m.result.Status,
					"wall", m.result.Wall, "splits", m.splits)
				m.shutdownAll()
				return m.result, nil
			}
		case <-timeout:
			m.result.Wall = time.Since(m.started)
			m.timeOut()
			m.log.Warn("run timed out", "after", m.cfg.Timeout)
			m.shutdownAll()
			return m.result, nil
		}
	}
}

// samplePeriod is the live shell's sampler tick.
const samplePeriod = time.Second

// serveLoop answers a GET with what read took off the event loop, or 503
// when the loop did not answer in time: a wedged master must not pass for
// an empty one.
func serveLoop[T any](w http.ResponseWriter, read func() (T, error)) {
	v, err := read()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// wallNow is the live shell's clock: seconds since Run started (0 before).
func (m *Master) wallNow() float64 {
	if m.started.IsZero() {
		return 0
	}
	return time.Since(m.started).Seconds()
}

func (m *Master) shutdownAll() {
	for _, id := range m.order {
		m.send(id, comm.Shutdown{})
	}
}

// stopLoops ends the shell's goroutines and waits for them. The accept
// loop ends with the listener. Each write loop flushes what is queued (the
// Shutdown above) and ends with its queue. Each read loop ends when its
// client, having read Shutdown, hangs up; a peer that has not done so
// within the grace period is cut off.
func (m *Master) stopLoops() {
	close(m.stopped)
	_ = m.listener.Close()
	for _, l := range m.links {
		close(l.out)
	}
	exited := make(chan struct{})
	go func() {
		m.loops.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(100 * time.Millisecond):
	}
	for _, l := range m.links {
		_ = l.conn.Close()
	}
	<-exited
	// A connection accepted but never attached is still in the queue.
	for {
		select {
		case ev := <-m.events:
			if ev.conn != nil {
				_ = ev.conn.Close()
			}
		default:
			return
		}
	}
}
