package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"gridsat/internal/cnf"
	"gridsat/internal/solver"
)

// This file is the payload half of the wire codec: the kind table, in
// which every protocol message lists its fields exactly once, and the
// coder those lists are written against. A field list is one function run
// in both directions — appending when the coder encodes, consuming when it
// decodes — so a field can never be encoded without being decoded, and a
// field missing from its list fails the fixture check in the tests.

// Payload caps, enforced on both sides before any payload byte is read.
// Kinds that carry clauses, subproblems, a formula or a model scale with
// the instance (the paper's largest split payloads are hundreds of MB);
// every other kind is a handful of scalars and short strings. CapBulk is
// exported because it is also the largest formula worth admitting: the
// job API bounds its request bodies by it.
const (
	capControl = 64 << 10
	CapBulk    = 1 << 30
)

// kind is one row of the kind table.
type kind struct {
	id    byte         // frame ID; 0x00 is never assigned
	typ   reflect.Type // the message struct, keying the encode-side lookup
	limit int          // payload byte limit
	// code runs the field list: over m when c encodes, over a zero value
	// when c decodes, which it then returns.
	code func(c *coder, m Message) Message
}

func kindOf[T Message](id byte, limit int, fields func(*coder, *T)) *kind {
	// A field list takes a pointer so that one list serves both directions,
	// which means encoding runs it over a copy of the message; fields is a
	// func value, so that copy would be a heap allocation per encode. The
	// copies are pooled instead, and cleared so they pin nothing.
	copies := sync.Pool{New: func() any { return new(T) }}
	return &kind{id: id, typ: reflect.TypeFor[T](), limit: limit, code: func(c *coder, m Message) Message {
		if !c.dec {
			v := copies.Get().(*T)
			*v, _ = m.(T)
			fields(c, v)
			var zero T
			*v = zero
			copies.Put(v)
			return m // nothing to box: the caller already has it
		}
		var v T
		fields(c, &v)
		return v
	}}
}

// kinds is the wire protocol. IDs are stable: add new kinds at the end.
var kinds = []*kind{
	kindOf(0x01, CapBulk, func(c *coder, m *ShareClauses) {
		c.int(&m.From)
		c.int(&m.Job)
		c.clauses(&m.Clauses)
	}),
	kindOf(0x02, CapBulk, func(c *coder, m *SplitPayload) {
		c.int(&m.SplitID)
		c.int(&m.Job)
		c.subs(&m.Subs)
	}),
	kindOf(0x03, capControl, func(c *coder, m *StatusReport) {
		c.i64(&m.MemBytes)
		c.int(&m.Learnts)
		c.int(&m.Depth)
		d := &m.Deltas
		c.i64(&d.Decisions)
		c.i64(&d.Conflicts)
		c.i64(&d.Propagations)
		c.i64(&d.Implications)
		c.i64(&d.Learned)
		c.i64(&d.ReclaimedBytes)
		c.i64(&d.Imported)
		c.i64(&d.ImportedImplications)
		c.i64(&d.ImportedResolutions)
		c.i64(&d.ImportedUseful)
		c.int(&m.Job)
		list(c, &m.Workers, 7, func(c *coder, w *WorkerReport) {
			c.int(&w.Worker)
			c.str(&w.Profile)
			c.i64(&w.Conflicts)
			c.i64(&w.Propagations)
			c.i64(&w.Restarts)
			c.int(&w.Learnts)
			c.i64(&w.MemBytes)
		})
	}),
	kindOf(0x04, capControl, func(c *coder, m *Register) {
		c.str(&m.Addr)
		c.str(&m.HostName)
		c.i64(&m.FreeMemBytes)
		c.f64(&m.SpeedHint)
		c.int(&m.Fanout)
	}),
	kindOf(0x05, capControl, func(c *coder, m *RegisterAck) {
		c.int(&m.ClientID)
		c.bool(&m.Rejected)
		c.str(&m.Reason)
	}),
	kindOf(0x06, CapBulk, func(c *coder, m *BaseProblem) {
		c.formula(&m.Formula)
		c.int(&m.Job)
	}),
	kindOf(0x07, capControl, func(c *coder, m *SplitRequest) {
		c.int(&m.ClientID)
		c.int((*int)(&m.Why))
	}),
	kindOf(0x08, capControl, func(c *coder, m *SplitAssign) {
		c.int(&m.SplitID)
		list(c, &m.Peers, 2, func(c *coder, p *SplitPeer) {
			c.int(&p.ID)
			c.str(&p.Addr)
		})
	}),
	kindOf(0x09, CapBulk, func(c *coder, m *SplitDone) {
		c.int(&m.SplitID)
		c.bool(&m.OK)
		c.str(&m.Err)
		c.int(&m.Used)
		c.subs(&m.Leftover)
	}),
	kindOf(0x0a, CapBulk, func(c *coder, m *Solved) {
		c.int((*int)(&m.Status))
		c.assignment(&m.Model)
		c.int(&m.Depth)
		c.int(&m.Worker)
		c.int(&m.Job)
	}),
	kindOf(0x0b, capControl, func(c *coder, m *Migrate) {
		c.int(&m.SplitID)
		c.int(&m.PeerID)
		c.str(&m.PeerAddr)
	}),
	kindOf(0x0c, capControl, func(*coder, *Shutdown) {}),
	// 0x0d is retired: no frame may reuse it.
	kindOf(0x0e, capControl, func(c *coder, m *Stopped) {
		c.int(&m.Job)
		c.int(&m.Seq)
	}),
	kindOf(0x0f, capControl, func(c *coder, m *StopWork) {
		c.int(&m.Job)
		c.int(&m.Seq)
	}),
}

var (
	kindByID   = map[byte]*kind{}
	kindByType = map[reflect.Type]*kind{}
)

func init() {
	for _, k := range kinds {
		kindByID[k.id] = k
		kindByType[k.typ] = k
	}
}

// coder moves fields between message structs and a payload, in whichever
// direction dec says. Every method takes a pointer to the field: encoding
// reads through it, decoding writes through it. The first failure sticks
// in err and turns the remaining calls into no-ops, so field lists need
// no error handling of their own.
type coder struct {
	buf []byte // encoding: the payload so far; decoding: the bytes still unread
	dec bool
	err error
	// scratch, when non-nil, backs clause canonicalization while encoding
	// (WireSize's pooled coders set it; a coder used once leaves it nil).
	scratch *clauseScratch
}

func (c *coder) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("comm: "+format, a...)
	}
}

// uvarint appends v, or consumes and returns the next varint.
func (c *coder) uvarint(v uint64) uint64 {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, v)
		return v
	}
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("truncated or overlong varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// take consumes the next n payload bytes (decode only).
func (c *coder) take(n int) []byte {
	if c.err == nil && n > len(c.buf) {
		c.fail("field of %d bytes with %d left", n, len(c.buf))
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func (c *coder) i64(p *int64) {
	u := c.uvarint(uint64(*p<<1) ^ uint64(*p>>63)) // zigzag
	if c.dec {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *coder) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		if int64(int(v)) != v {
			c.fail("integer %d out of range", v)
			return
		}
		*p = int(v)
	}
}

func (c *coder) bool(p *bool) {
	var u uint64
	if *p {
		u = 1
	}
	if u = c.uvarint(u); c.dec {
		if u > 1 {
			c.fail("boolean %d", u)
		}
		*p = u == 1
	}
}

func (c *coder) f64(p *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

func (c *coder) str(p *string) {
	n := c.count(len(*p), 1)
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if n > 0 {
		*p = string(c.take(n))
	}
}

// count moves a length prefix. Decoding rejects a count whose elements, at
// minBytes each, cannot fit in what is left of the payload — so a decoded
// count never sizes an allocation the sender did not pay for in bytes.
func (c *coder) count(n, minBytes int) int {
	u := c.uvarint(uint64(n))
	if c.dec && u > uint64(len(c.buf)/minBytes) {
		c.fail("count %d exceeds the %d payload bytes left", u, len(c.buf))
		return 0
	}
	return int(u)
}

// list moves a slice as a count and then each element through elem. An
// empty slice decodes as nil.
func list[T any](c *coder, p *[]T, minBytes int, elem func(*coder, *T)) {
	n := c.count(len(*p), minBytes)
	if c.dec && n > 0 {
		*p = make([]T, n)
	}
	for i := range *p {
		elem(c, &(*p)[i])
	}
}

// opt moves the presence byte of an optional pointer field, allocating
// the target when decoding, and reports whether its fields follow.
func opt[T any](c *coder, p **T) bool {
	has := *p != nil
	c.bool(&has)
	if has && c.dec {
		*p = new(T)
	}
	return has
}

func (c *coder) lit(p *cnf.Lit) {
	u := c.uvarint(uint64(*p))
	if c.dec {
		if u > math.MaxUint32 {
			c.fail("literal %d out of range", u)
			return
		}
		*p = cnf.Lit(u)
	}
}

// lits moves literals verbatim, order preserved: assumption lists are
// trail prefixes and a formula's clauses are what the solver's heuristics
// were seeded from, so neither may be reordered.
func (c *coder) lits(p *[]cnf.Lit) { list(c, p, 1, (*coder).lit) }

// clauses moves a learned-clause batch as a bit-packed clause block, which
// canonicalizes clause and literal order (see appendClauseBlock).
func (c *coder) clauses(p *[]cnf.Clause) {
	if !c.dec {
		c.buf = appendClauseBlock(c.buf, *p, c.scratch)
		return
	}
	if c.err != nil {
		return
	}
	cs, rest, err := readClauseBlock(c.buf)
	if err != nil {
		c.fail("clause block: %v", err)
		return
	}
	if len(cs) > 0 {
		*p = cs
	}
	c.buf = rest
}

func (c *coder) sub(s *solver.Subproblem) {
	c.int(&s.NumVars)
	c.int(&s.Depth)
	c.lits(&s.Assumptions)
	c.clauses(&s.Learnts)
}

// subs moves a subproblem batch. Clause blocks self-delimit, so members
// sit back to back with no per-subproblem length prefix.
func (c *coder) subs(p *[]*solver.Subproblem) {
	list(c, p, 4, func(c *coder, s **solver.Subproblem) {
		if c.dec {
			*s = new(solver.Subproblem)
		} else if *s == nil {
			c.fail("nil subproblem in batch")
			return
		}
		c.sub(*s)
	})
}

// formula moves the base problem verbatim — clause order and literal
// order preserved — so every client, live or simulated, seeds its solver
// from the same formula the master holds. Decoded clauses are carved from
// the formula's own literal slab, as Formula.Add carves them.
func (c *coder) formula(p **cnf.Formula) {
	if !opt(c, p) {
		return
	}
	f := *p
	c.int(&f.NumVars)
	c.str(&f.Comment)
	list(c, &f.Clauses, 1, func(c *coder, cl *cnf.Clause) {
		n := c.count(len(*cl), 1)
		if c.dec && n > 0 {
			*cl = f.Carve(n)
		}
		for i := range *cl {
			c.lit(&(*cl)[i])
		}
	})
}

func (c *coder) assignment(p *cnf.Assignment) {
	list(c, (*[]cnf.LBool)(p), 1, func(c *coder, v *cnf.LBool) {
		u := c.uvarint(uint64(*v))
		if c.dec {
			if u > uint64(cnf.False) {
				c.fail("truth value %d out of range", u)
				return
			}
			*v = cnf.LBool(u)
		}
	})
}
