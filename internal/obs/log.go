package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

// Log levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// levelOff is above every level; used by Nop.
	levelOff
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	}
	return "OFF"
}

// ParseLevel maps a flag string ("debug", "info", "warn", "error") to a
// Level, case-insensitively; anything else is an error naming the accepted
// levels.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Logger is a small leveled structured logger writing one line per event:
//
//	2003-11-15T10:20:30.123Z INFO  [master] client registered id=3 mem=512MiB
//
// Key-value pairs are appended as k=v; values with spaces are quoted.
// Named returns component-scoped children that share the writer, mutex,
// and level, so a whole process logs through one Logger tree.
type Logger struct {
	mu   *sync.Mutex
	w    io.Writer
	lvl  *atomic.Int32
	name string
	now  func() time.Time
	lt   LamportSource
}

// LamportSource supplies a logical timestamp for log lines. Both
// comm.Clock and trace.Flight satisfy it.
type LamportSource interface{ Now() uint64 }

// NewLogger writes events at or above lvl to w.
func NewLogger(w io.Writer, lvl Level) *Logger {
	l := &Logger{mu: &sync.Mutex{}, w: w, lvl: &atomic.Int32{}, now: time.Now}
	l.lvl.Store(int32(lvl))
	return l
}

// Nop returns a logger that discards everything at zero cost.
func Nop() *Logger {
	l := NewLogger(io.Discard, levelOff)
	return l
}

// Named returns a child logger tagged with a component name (children of
// named loggers join the names with '/').
func (l *Logger) Named(name string) *Logger {
	child := *l
	if l.name != "" {
		child.name = l.name + "/" + name
	} else {
		child.name = name
	}
	return &child
}

// WithLamport returns a child logger that stamps each line with the
// logical time read from src, rendered as [component@N]. Wall clocks skew
// across grid sites; the Lamport stamp is what lets a log line be placed
// against the flight recorder's causal event order.
func (l *Logger) WithLamport(src LamportSource) *Logger {
	child := *l
	child.lt = src
	return &child
}

// SetLevel changes the level for this logger and everyone sharing it.
func (l *Logger) SetLevel(lvl Level) { l.lvl.Store(int32(lvl)) }

// Enabled reports whether events at lvl would be written.
func (l *Logger) Enabled(lvl Level) bool { return lvl >= Level(l.lvl.Load()) }

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lvl Level, msg string, kv []any) {
	if !l.Enabled(lvl) {
		return
	}
	var b strings.Builder
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	fmt.Fprintf(&b, " %-5s ", lvl)
	if l.name != "" || l.lt != nil {
		b.WriteByte('[')
		b.WriteString(l.name)
		if l.lt != nil {
			fmt.Fprintf(&b, "@%d", l.lt.Now())
		}
		b.WriteString("] ")
	}
	b.WriteString(msg)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v=", kv[i])
		writeValue(&b, kv[i+1])
	}
	if len(kv)%2 == 1 { // dangling key: make the mistake visible, not lost
		fmt.Fprintf(&b, " %v=?", kv[len(kv)-1])
	}
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

func writeValue(b *strings.Builder, v any) {
	s := fmt.Sprintf("%v", v)
	if strings.ContainsAny(s, " \t\n\"=") {
		fmt.Fprintf(b, "%q", s)
	} else {
		b.WriteString(s)
	}
}
