package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is a bidirectional, message-oriented connection.
type Conn interface {
	Send(Message) error
	// SendEncoded writes a pre-serialized frame. A broadcast can encode a
	// message once with EncodeMessage and hand the identical EncodedMessage
	// to every peer connection, skipping per-peer serialization.
	SendEncoded(*EncodedMessage) error
	Recv() (Message, error)
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the dialable address of this listener.
	Addr() string
}

// Transport abstracts the wire so the same master/client code runs over
// TCP in a real deployment or over channels inside one process.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ---- TCP transport ----

// TCPTransport sends length-prefixed binary frames over TCP (see codec.go
// for the frame format).
type TCPTransport struct{}

// Listen implements Transport. addr may use ":0" for an ephemeral port;
// the listener's Addr reports the bound address.
func (TCPTransport) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// dialTimeout bounds a TCP connect: room for three SYN retransmits, far
// short of the kernel's two minutes against a host that drops packets.
const dialTimeout = 10 * time.Second

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (Conn, error) {
	c, err := (&net.Dialer{Timeout: dialTimeout}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newFrameConn(c), nil
}

type tcpListener struct{ l net.Listener }

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newFrameConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// frameConn moves codec frames over a byte stream. Frames are
// self-describing (kind byte + length prefix), so the peer decodes with
// no negotiation.
type frameConn struct {
	c      net.Conn
	w      *bufio.Writer
	r      *bufio.Reader
	sendMu sync.Mutex
	recvMu sync.Mutex
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, w: bufio.NewWriter(c), r: bufio.NewReader(c)}
}

func (f *frameConn) Send(m Message) error {
	e, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	return f.SendEncoded(e)
}

func (f *frameConn) SendEncoded(e *EncodedMessage) error {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	if _, err := f.w.Write(e.frame); err != nil {
		return err
	}
	return f.w.Flush()
}

func (f *frameConn) Recv() (Message, error) {
	m, _, err := f.recvFrame()
	return m, err
}

// recvFrame is Recv plus the length of the frame it read (see sizedRecver).
func (f *frameConn) recvFrame() (Message, int, error) {
	f.recvMu.Lock()
	defer f.recvMu.Unlock()
	return readMessage(f.r)
}

func (f *frameConn) Close() error { return f.c.Close() }

// ---- In-process transport ----

// InprocTransport connects endpoints inside one process through buffered
// channels. Addresses are arbitrary strings scoped to the transport
// instance. Useful for tests and single-machine distributed runs.
type InprocTransport struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// NewInprocTransport returns an empty address space.
func NewInprocTransport() *InprocTransport {
	return &InprocTransport{listeners: map[string]*inprocListener{}}
}

// Listen implements Transport; an empty addr auto-allocates one.
func (t *InprocTransport) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.nextAuto++
		addr = fmt.Sprintf("inproc-%d", t.nextAuto)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("comm: address %q already bound", addr)
	}
	l := &inprocListener{t: t, addr: addr, accept: make(chan Conn, 16), done: make(chan struct{})}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *InprocTransport) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("comm: no listener at %q", addr)
	}
	a, b := NewPipe()
	select {
	case l.accept <- b:
		return a, nil
	case <-l.done:
		return nil, fmt.Errorf("comm: listener %q closed", addr)
	}
}

type inprocListener struct {
	t      *InprocTransport
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, errors.New("comm: listener closed")
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// NewPipe returns two connected in-process conn endpoints. They carry
// frames, not values: Send encodes, Recv decodes, so what crosses a pipe
// went through the codec TCP uses and no receiver shares storage with the
// sender or with another receiver of the same frame.
func NewPipe() (Conn, Conn) {
	ab := make(chan *EncodedMessage, 64)
	ba := make(chan *EncodedMessage, 64)
	done := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(done) }) }
	a := &pipeConn{out: ab, in: ba, done: done, close: closeFn}
	b := &pipeConn{out: ba, in: ab, done: done, close: closeFn}
	return a, b
}

type pipeConn struct {
	out   chan *EncodedMessage
	in    chan *EncodedMessage
	done  chan struct{}
	close func()
}

func (p *pipeConn) Send(m Message) error {
	e, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	return p.SendEncoded(e)
}

func (p *pipeConn) SendEncoded(e *EncodedMessage) error {
	select {
	case <-p.done:
		return errors.New("comm: pipe closed")
	default:
	}
	select {
	case p.out <- e:
		return nil
	case <-p.done:
		return errors.New("comm: pipe closed")
	}
}

func (p *pipeConn) Recv() (Message, error) {
	m, _, err := p.recvFrame()
	return m, err
}

// recvFrame is Recv plus the length of the frame it decoded (see
// sizedRecver).
func (p *pipeConn) recvFrame() (Message, int, error) {
	var e *EncodedMessage
	select {
	case e = <-p.in:
	case <-p.done:
		// Drain anything already queued before reporting closure.
		select {
		case e = <-p.in:
		default:
			return nil, 0, errors.New("comm: pipe closed")
		}
	}
	m, err := e.Decode()
	return m, e.WireLen(), err
}

func (p *pipeConn) Close() error {
	p.close()
	return nil
}
