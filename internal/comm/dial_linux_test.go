package comm

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// blackHole returns the address of a loopback listener that answers no
// SYN: a socket listening with backlog 0 that nobody accepts from, its
// one-connection queue filled. Linux drops SYNs to a full accept queue, so
// a connect to it hangs the way one to a packet-dropping host does.
func blackHole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 16; i++ {
		c, err := net.DialTimeout("tcp", addr, 300*time.Millisecond)
		if err != nil {
			return addr // the queue is full: this connect was dropped
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	t.Skip("kernel kept accepting connections on a full backlog; no black hole to dial")
	return ""
}

// TestTCPDialIsBounded: a dial to a host that drops packets fails within
// dialTimeout instead of waiting out the kernel's SYN retries (minutes).
func TestTCPDialIsBounded(t *testing.T) {
	t.Parallel()
	addr := blackHole(t)
	start := time.Now()
	conn, err := TCPTransport{}.Dial(addr)
	waited := time.Since(start)
	if err == nil {
		conn.Close()
		t.Fatal("dial to a black hole succeeded")
	}
	if waited > dialTimeout+5*time.Second {
		t.Fatalf("dial took %v, bound is %v", waited, dialTimeout)
	}
}
