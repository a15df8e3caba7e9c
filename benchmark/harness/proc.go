package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Group owns every process a run starts, so that one deferred StopAll (or
// a signal handler calling it) leaves no orphan behind.
type Group struct {
	mu    sync.Mutex
	procs []*Proc
}

// Proc is one started program with its stderr drained into a line buffer.
type Proc struct {
	Name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned

	mu    sync.Mutex
	lines []string      // the last keepLines lines of stderr
	more  chan struct{} // closed and replaced on every new line
}

// keepLines bounds the stderr a Proc remembers: the banner is waited for
// while the log is still a few lines long, errors are in the last few.
const keepLines = 200

// Start runs bin with args, stderr captured, stdout discarded. The child
// is killed by the kernel if the harness dies without stopping it.
func (g *Group) Start(name, bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &Proc{Name: name, cmd: cmd, done: make(chan struct{}), more: make(chan struct{})}
	go p.drain(stderr)
	g.mu.Lock()
	g.procs = append(g.procs, p)
	g.mu.Unlock()
	return p, nil
}

// drain reads stderr to EOF, then reaps the process.
func (p *Proc) drain(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.mu.Lock()
		if len(p.lines) >= keepLines {
			p.lines = append(p.lines[:0], p.lines[1:]...)
		}
		p.lines = append(p.lines, sc.Text())
		close(p.more)
		p.more = make(chan struct{})
		p.mu.Unlock()
	}
	_ = p.cmd.Wait() // exit status is read from ProcessState by callers that care
	close(p.done)
}

// WaitLine blocks until a stderr line matches re and returns its first
// submatch, or fails when the process exits or the timeout passes first.
func (p *Proc) WaitLine(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if m := re.FindStringSubmatch(p.lines[seen]); m != nil {
				p.mu.Unlock()
				return m[1], nil
			}
		}
		more := p.more
		p.mu.Unlock()
		select {
		case <-more:
		case <-p.done:
			return "", fmt.Errorf("%s exited before printing %q:\n%s", p.Name, re, p.Tail(10))
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %v:\n%s", p.Name, re, timeout, p.Tail(10))
		}
	}
}

// Tail returns the last n stderr lines, for error messages.
func (p *Proc) Tail(n int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.lines
	if len(l) > n {
		l = l[len(l)-n:]
	}
	return strings.Join(l, "\n")
}

// PID is the process ID.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Stop interrupts the process, waits up to grace for it to exit and kills
// it otherwise. It returns once the process has been reaped.
func (p *Proc) Stop(grace time.Duration) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(os.Interrupt) // racing a natural exit is fine
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// StopAll stops every process the group started, newest first.
func (g *Group) StopAll() {
	g.mu.Lock()
	procs := g.procs
	g.procs = nil
	g.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].Stop(2 * time.Second)
	}
}

// Usage is what /proc says about a live process.
type Usage struct {
	CPUSeconds float64
	PeakRSSMB  float64
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// ProcUsage reads CPU time from /proc/<pid>/stat and the resident-set
// high-water mark from /proc/<pid>/status.
func ProcUsage(pid int) (Usage, error) {
	var u Usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name is in parentheses and may hold spaces: fields are
	// counted from after the last ')'. utime and stime are fields 14, 15.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.CPUSeconds = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			u.PeakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// RunResult is a process run to completion.
type RunResult struct {
	Stdout     []byte
	Wall       time.Duration
	CPUSeconds float64
	PeakRSSMB  float64
}

// Run executes bin to completion under a deadline and returns its stdout
// and resource usage. A non-zero exit or a missed deadline is an error;
// the process has ended either way.
func Run(deadline time.Duration, bin string, args ...string) (RunResult, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return RunResult{}, err
	}
	timer := time.AfterFunc(deadline, func() { _ = cmd.Process.Kill() })
	err := cmd.Wait()
	timedOut := !timer.Stop()
	res := RunResult{Stdout: []byte(out.String()), Wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		res.CPUSeconds = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.PeakRSSMB = float64(ru.Maxrss) / 1024
		}
	}
	if timedOut {
		return res, fmt.Errorf("%s %s: deadline %v passed", bin, strings.Join(args, " "), deadline)
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return res, nil
}
