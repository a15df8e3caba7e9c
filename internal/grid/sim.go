// Package grid simulates the Computational Grid substrate the paper ran
// on: heterogeneous hosts grouped into sites (the GrADS testbed at UTK,
// UIUC and UCSD, plus UCSB desktops), a wide-area network with per-site
// latency and bandwidth, background contention on the shared machines, an
// MDS-like information service fed by NWS forecasters, and a Blue
// Horizon-style batch system with long queue waits.
//
// Time is virtual: the package provides a deterministic discrete-event
// simulation kernel (Sim). GridSAT's benchmark harness advances client
// computation in work units (solver propagations) that convert to virtual
// seconds through each host's speed and current availability. The kernel
// is one event loop on one goroutine; core.RunDistributed computes its
// clients' work quanta on worker goroutines beside it and hands each
// quantum's end back as an event whose place in the order was fixed when
// the quantum started (Reserve/AtTicket), so a 34-host run reproduces
// exactly on however many physical cores the host has.
package grid

import "container/heap"

// Sim is a deterministic discrete-event simulation kernel. Events with
// equal timestamps run in scheduling order. It is not safe for concurrent
// use: every method is called from the one goroutine that steps it.
type Sim struct {
	now float64
	seq int64
	pq  eventHeap
}

// NewSim returns a kernel at virtual time 0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	s.AtTicket(s.Reserve(), t, fn)
}

// Ticket is a place in the scheduling order, taken by Reserve for an event
// whose time is not known yet.
type Ticket int64

// Reserve takes the next place in the scheduling order without scheduling
// anything. An event later queued under the ticket ties with equal-time
// events exactly as if At had been called where Reserve was.
func (s *Sim) Reserve() Ticket {
	s.seq++
	return Ticket(s.seq)
}

// AtTicket schedules fn at absolute virtual time t (clamped to now) in the
// place tk reserved. A ticket is good for one event.
func (s *Sim) AtTicket(tk Ticket, t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	heap.Push(&s.pq, &event{t: t, seq: int64(tk), fn: fn})
}

// After schedules fn d virtual seconds from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Step runs the earliest pending event; false when none remain.
func (s *Sim) Step() bool {
	if s.pq.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.pq).(*event)
	s.now = ev.t
	ev.fn()
	return true
}

// Run executes events until the queue drains or the next event would pass
// the `until` horizon (which then becomes the current time). Events at
// exactly `until` still run.
func (s *Sim) Run(until float64) {
	for s.pq.Len() > 0 {
		if s.pq[0].t > until {
			s.now = until
			return
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.pq.Len() }

// NextAt returns the timestamp of the earliest pending event.
func (s *Sim) NextAt() (float64, bool) {
	if s.pq.Len() == 0 {
		return 0, false
	}
	return s.pq[0].t, true
}

type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
