package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"gridsat/internal/cnf"
)

// This file is the frame half of the wire codec plus the bit-packed clause
// block. Every connection carries length-prefixed frames, all in the one
// binary codec: the frame's first byte names the message kind, and the
// kind's field list in kinds.go lays out the payload. There is no second
// encoding and nothing to negotiate.
//
// Frame layout:
//
//	[1 byte kind ID | traced flag][trace header][uvarint payload length][payload]
//
// Learned-clause batches inside a payload are clause blocks, which
// canonicalize clause order (shortest first, then lexicographic by sorted
// literals) and literal order (ascending) — both are semantically free for
// learned-clause exchange, because receivers normalize imported clauses
// anyway, and shortest-first is exactly the priority order the sharing
// pipeline wants when batches are dropped.

// frameTracedFlag marks a frame carrying a causal-trace header: two
// uvarints (Lamport timestamp, parent event ID) between the kind byte and
// the length prefix. The flag composes with every kind, and an untraced
// frame pays nothing for it.
const frameTracedFlag byte = 0x80

// maxHeader is the longest frame header: kind byte, trace header, length.
const maxHeader = 1 + 3*binary.MaxVarintLen64

// maxClausesPerFrame bounds the decoded clause count per clause block.
const maxClausesPerFrame = 1 << 24

// EncodedMessage is a message serialized once into its complete wire
// frame. It implements Message, so it can flow through the same queues as
// a plain message; transports write the frame bytes verbatim, which lets a
// broadcast encode one batch and fan the identical byte slice out to N
// peers.
type EncodedMessage struct {
	kind  string
	frame []byte
}

// Kind implements Message, reporting the inner message's kind.
func (e *EncodedMessage) Kind() string { return e.kind }

// WireLen is the exact number of bytes this frame occupies on the wire.
func (e *EncodedMessage) WireLen() int { return len(e.frame) }

// Frame exposes the raw frame bytes. Callers must not mutate them.
func (e *EncodedMessage) Frame() []byte { return e.frame }

// encodeInto runs m's field list into c.buf, behind the maxHeader bytes of
// room c.buf must already hold, and appends the frame header that goes in
// front of that payload to hdr. The frame is len(h) + n bytes.
func encodeInto(c *coder, m Message, hdr []byte) (h []byte, n int, err error) {
	t, traced := m.(Traced)
	if traced {
		m = t.Msg
	}
	k := kindByType[reflect.TypeOf(m)]
	if k == nil {
		return nil, 0, fmt.Errorf("comm: no wire kind for %T", m)
	}
	k.code(c, m)
	if c.err != nil {
		return nil, 0, c.err
	}
	n = len(c.buf) - maxHeader
	if n > k.limit {
		return nil, 0, fmt.Errorf("comm: %s payload %d exceeds limit %d", m.Kind(), n, k.limit)
	}
	h = append(hdr, k.id)
	if traced {
		h[len(h)-1] |= frameTracedFlag
		h = binary.AppendUvarint(h, t.Info.Lamport)
		h = binary.AppendUvarint(h, t.Info.Parent)
	}
	return binary.AppendUvarint(h, uint64(n)), n, nil
}

// EncodeMessage serializes m into its wire frame.
func EncodeMessage(m Message) (*EncodedMessage, error) {
	if e, ok := m.(*EncodedMessage); ok {
		return e, nil
	}
	// The payload is encoded behind room for the largest header, and the
	// header — whose length depends on the payload's — is then written
	// right-aligned into that room: one buffer, no copy of the payload.
	c := coder{buf: make([]byte, maxHeader, 128)}
	var hdr [maxHeader]byte
	h, _, err := encodeInto(&c, m, hdr[:0])
	if err != nil {
		return nil, err
	}
	frame := c.buf[maxHeader-len(h):]
	copy(frame, h)
	return &EncodedMessage{kind: m.Kind(), frame: frame}, nil
}

// Decode reconstructs the message from the frame. Each call returns a
// fresh value with no aliasing into the frame, so one frame may be decoded
// independently by many receivers.
func (e *EncodedMessage) Decode() (Message, error) {
	m, _, err := readMessage(bytes.NewReader(e.frame))
	return m, err
}

// frameReader is what readMessage needs: buffered byte-at-a-time access
// for the header plus bulk reads for the payload.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// readMessage reads and decodes one frame from r, and reports the frame's
// length as this codec writes it (EncodeMessage(m).WireLen()). Trace-flagged
// frames come back wrapped in Traced so the receive loop can merge the clock.
func readMessage(r frameReader) (m Message, frameLen int, err error) {
	id, err := r.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	frameLen = 1
	var ti *TraceInfo
	if id&frameTracedFlag != 0 {
		id &^= frameTracedFlag
		ti = &TraceInfo{}
		if ti.Lamport, err = binary.ReadUvarint(r); err != nil {
			return nil, 0, fmt.Errorf("comm: trace header: %w", err)
		}
		if ti.Parent, err = binary.ReadUvarint(r); err != nil {
			return nil, 0, fmt.Errorf("comm: trace header: %w", err)
		}
		frameLen += uvarintLen(ti.Lamport) + uvarintLen(ti.Parent)
	}
	k := kindByID[id]
	if k == nil {
		return nil, 0, fmt.Errorf("comm: unknown frame kind 0x%02x", id)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("comm: frame length: %w", err)
	}
	if n > uint64(k.limit) {
		return nil, 0, fmt.Errorf("comm: frame kind 0x%02x payload %d exceeds limit %d", id, n, k.limit)
	}
	frameLen += uvarintLen(n) + int(n)
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, 0, err
	}
	c := coder{buf: payload, dec: true}
	m = k.code(&c, nil)
	if c.err == nil && len(c.buf) != 0 {
		c.fail("%d bytes after the last field of %s", len(c.buf), m.Kind())
	}
	if c.err != nil {
		return nil, 0, c.err
	}
	if ti == nil {
		return m, frameLen, nil
	}
	return Traced{Info: *ti, Msg: m}, frameLen, nil
}

// readPayload reads the n payload bytes the length prefix announced. The
// prefix is the sender's claim, so the buffer starts small and grows only
// as bytes actually arrive: a frame that claims a gigabyte and delivers
// ten bytes costs one small allocation, not a gigabyte.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // mid-frame is never a clean close
			}
			return nil, fmt.Errorf("comm: frame body: %w", err)
		}
		if got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...) // at most double
	}
}

// sizers holds WireSize's scratch: coders whose payload buffer and clause
// scratch are reused from call to call.
var sizers = sync.Pool{New: func() any {
	return &coder{buf: make([]byte, maxHeader, 1024), scratch: new(clauseScratch)}
}}

// WireSize returns the exact frame size m occupies on the wire —
// EncodeMessage(m).WireLen() — used by transport instrumentation and by the
// simulator's network model, which prices every message through it. It runs
// the same field list into a pooled scratch buffer and keeps only the
// length, so it allocates nothing. It returns 0 when m cannot be encoded.
func WireSize(m Message) int64 {
	if e, ok := m.(*EncodedMessage); ok {
		return int64(e.WireLen())
	}
	c := sizers.Get().(*coder)
	defer func() {
		c.buf, c.err = c.buf[:maxHeader], nil
		sizers.Put(c)
	}()
	var hdr [maxHeader]byte
	h, n, err := encodeInto(c, m, hdr[:0])
	if err != nil {
		return 0
	}
	return int64(len(h) + n)
}

// ---- bit-level clause block codec ----

// bitWriter packs bits LSB-first into a byte slice.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nacc uint
	// stk is writeInterior's pending-subrange stack. It lives here, not in
	// a local array, so it is zeroed once per block rather than once per
	// clause, and its scalar-only frames never trip GC write barriers.
	stk [28]interiorFrame
}

// interiorFrame is a deferred writeInterior subrange: clause indices plus
// the value bounds. Scalars only — see bitWriter.stk.
type interiorFrame struct {
	start, end int32
	lo, hi     uint32
}

// writeBits appends the low n bits of v (n ≤ 32). The accumulator holds
// under 32 pending bits between calls, so a 32-bit write never overflows
// it, and full 4-byte chunks flush in one append.
func (w *bitWriter) writeBits(v uint64, n uint) {
	w.acc |= (v & (1<<n - 1)) << w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		w.buf = append(w.buf, byte(w.acc), byte(w.acc>>8), byte(w.acc>>16), byte(w.acc>>24))
		w.acc >>= 32
		w.nacc -= 32
	}
}

// writeGamma writes n ≥ 1 in Elias-gamma form: k-1 zero bits, a one bit,
// then the low k-1 bits of n, where k = bit length of n. Small values —
// the overwhelmingly common case — go out in a single writeBits call.
func (w *bitWriter) writeGamma(n uint64) {
	k := uint(bits.Len64(n))
	if k <= 16 {
		low := n & (1<<(k-1) - 1)
		w.writeBits(1<<(k-1)|low<<k, 2*k-1)
		return
	}
	z := k - 1
	for z > 32 {
		w.writeBits(0, 32)
		z -= 32
	}
	w.writeBits(0, z)
	w.writeBits(1, 1)
	if k-1 > 32 {
		w.writeBits(n, 32)
		w.writeBits(n>>32, k-1-32)
	} else {
		w.writeBits(n, k-1) // low k-1 bits; the leading one is the stop bit
	}
}

func (w *bitWriter) finish() []byte {
	for w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		if w.nacc >= 8 {
			w.nacc -= 8
		} else {
			w.nacc = 0
		}
	}
	return w.buf
}

// bitReader mirrors bitWriter.
type bitReader struct {
	buf  []byte
	pos  int
	acc  uint64
	nacc uint
}

var errBitStream = errors.New("comm: truncated clause bitstream")

func (r *bitReader) readBits(n uint) (uint64, error) {
	for r.nacc < n {
		if r.pos >= len(r.buf) {
			return 0, errBitStream
		}
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

func (r *bitReader) readGamma() (uint64, error) {
	var zeros uint
	for {
		b, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 57 {
			return 0, errBitStream
		}
	}
	low, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<zeros | low, nil
}

// clauseScratch is reusable backing for canonicalize: the clause slice it
// returns and the literals of the clauses it had to clone.
type clauseScratch struct {
	out  []cnf.Clause
	lits cnf.Clause
}

// canonicalize returns the batch in codec-canonical form: a fresh clause
// slice, literals strictly ascending within each clause, clauses ordered
// shortest first and lexicographically within a length. Input clauses are
// never modified; clauses that are already strictly increasing — the
// common case, since the share aggregator normalizes at learn time — are
// aliased rather than cloned, so a canonical batch encodes without any
// per-literal copying or sorting. With a non-nil sc the result lives in
// sc's backing instead and is valid until sc's next use.
func canonicalize(cs []cnf.Clause, sc *clauseScratch) []cnf.Clause {
	dirty := 0 // total literals across clauses that still need clone+sort
	for _, c := range cs {
		if !strictlyIncreasing(c) {
			dirty += len(c)
		}
	}
	// One backing array for every clone; clauses are short and many, so
	// per-clause allocations would dominate the encode cost.
	var backing cnf.Clause
	var out []cnf.Clause
	if sc != nil {
		sc.lits = slices.Grow(sc.lits[:0], dirty)
		sc.out = slices.Grow(sc.out[:0], len(cs))
		backing, out = sc.lits[:dirty], sc.out[:len(cs)]
	} else {
		if dirty > 0 {
			backing = make(cnf.Clause, dirty)
		}
		out = make([]cnf.Clause, len(cs))
	}
	for i, c := range cs {
		if strictlyIncreasing(c) {
			out[i] = c
			continue
		}
		s := backing[:len(c):len(c)]
		backing = backing[len(c):]
		copy(s, c)
		sortLits(s)
		// Drop duplicate literals: semantically free (receivers normalize)
		// and it makes every canonical clause strictly increasing, which
		// the interior coder's range tightening relies on.
		w := 0
		for j, l := range s {
			if j == 0 || l != s[w-1] {
				s[w] = l
				w++
			}
		}
		out[i] = s[:w]
	}
	sortClauses(out)
	return out
}

// strictlyIncreasing reports whether c is already in canonical literal
// order: sorted ascending with no duplicates.
func strictlyIncreasing(c cnf.Clause) bool {
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			return false
		}
	}
	return true
}

// clauseLess orders clauses shortest first, lexicographically within a
// length. Most comparisons resolve on length alone.
func clauseLess(x, y cnf.Clause) bool {
	if len(x) != len(y) {
		return len(x) < len(y)
	}
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// sortClauses orders a batch with clauseLess: insertion sort for the batch
// sizes the share aggregator flushes, generic sort above that.
func sortClauses(out []cnf.Clause) {
	if len(out) > 64 {
		slices.SortFunc(out, func(x, y cnf.Clause) int {
			switch {
			case clauseLess(x, y):
				return -1
			case clauseLess(y, x):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(out); i++ {
		c := out[i]
		j := i - 1
		for j >= 0 && clauseLess(c, out[j]) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = c
	}
}

// sortLits orders a clause's literals ascending: insertion sort for the
// very short clauses that dominate share traffic, generic pdqsort above
// that — both avoid sort.Slice's interface dispatch.
func sortLits(c cnf.Clause) {
	if len(c) > 48 {
		slices.Sort(c)
		return
	}
	for i := 1; i < len(c); i++ {
		v := c[i]
		j := i - 1
		for j >= 0 && c[j] > v {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = v
	}
}

// appendClauseBlock encodes cs in canonical order: a uvarint clause count,
// a uvarint block-wide maximum literal, then a bitstream of per-clause
// (length delta, first-literal delta, interior). Lengths are
// non-decreasing in canonical order, so length deltas are tiny; first
// literals within a length group are non-decreasing too, so their zigzag
// deltas stay small; the remaining sorted literals are binary-
// interpolative coded within [first, maxLit].
func appendClauseBlock(b []byte, cs []cnf.Clause, sc *clauseScratch) []byte {
	cs = canonicalize(cs, sc)
	b = binary.AppendUvarint(b, uint64(len(cs)))
	if len(cs) == 0 {
		return b
	}
	var maxLit uint32
	for _, c := range cs {
		for _, l := range c {
			if uint32(l) > maxLit {
				maxLit = uint32(l)
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(maxLit))
	var total int
	for _, c := range cs {
		total += len(c)
	}
	// The bitstream goes straight onto b, presized for ~2 B per literal
	// plus per-clause headers; the codec lands well under that, so appends
	// never reallocate mid-encode.
	w := bitWriter{buf: slices.Grow(b, 2*total+4*len(cs)+8)}
	prevLen := uint64(0)
	prevFirst := int64(0)
	for _, c := range cs {
		l := uint64(len(c))
		w.writeGamma(l - prevLen + 1)
		prevLen = l
		if l == 0 {
			continue
		}
		first := int64(c[0])
		d := first - prevFirst
		w.writeGamma(uint64(d<<1) ^ uint64(d>>63) + 1)
		prevFirst = first
		if l > 1 {
			w.writeInterior(c[1:], uint32(first), maxLit)
		}
	}
	return w.finish()
}

// Bounded values x ∈ [0, r] use a minimal (phase-in) binary code: with
// n = r+1 possible values and k = bit length of r, the u = 2^k - n
// smallest values cost k-1 bits and the rest k bits. Stream layout is a
// k-1 bit field, then — for the long codewords only — one extra bit, so
// the LSB-first reader can decide after the first field. The writer side
// lives inlined in writeInterior, its only call site; readBounded is the
// matching decoder.
func (r *bitReader) readBounded(rng uint32) (uint32, error) {
	if rng == 0 {
		return 0, nil
	}
	k := uint(bits.Len32(rng))
	u := uint32(1)<<k - rng - 1
	y, err := r.readBits(k - 1)
	if err != nil {
		return 0, err
	}
	if uint32(y) < u {
		return uint32(y), nil
	}
	b, err := r.readBits(1)
	if err != nil {
		return 0, err
	}
	x := u + ((uint32(y)-u)<<1 | uint32(b))
	if x > rng {
		return 0, errBitStream
	}
	return x, nil
}

// writeInterior emits the strictly-increasing tail of a canonical clause
// by binary interpolative coding: the middle literal is written in a
// minimal binary code for its feasible range — tightened by the bounds
// AND by how many distinct literals must fit on either side — then each
// half recurses. Clustered literal sets cost well under a fixed-width gap
// code, and no per-clause width field is needed.
//
// Invariant: all values of s lie in (lo, hi] and are strictly increasing.
func (w *bitWriter) writeInterior(s cnf.Clause, lo, hi uint32) {
	// The right half is handled iteratively (tail-call turned into a
	// loop) and empty halves never recurse, which roughly halves the
	// call count on this hot path.
	// Fully iterative DFS (mid, left subtree, right subtree): right halves
	// wait on an explicit stack while the left spine is walked, and the
	// bit accumulator stays in registers for the whole clause instead of
	// round-tripping through the struct on every literal. Depth is bounded
	// by log2 of the clause length cap (cnf.MaxClauseSize), so the stack is
	// fixed-size.
	acc, nacc, buf := w.acc, w.nacc, w.buf
	start, end := int32(0), int32(len(s))
	sp := 0
	for {
		for start < end {
			m := (end - start) / 2
			v := uint32(s[start+m])
			minV := lo + uint32(m) + 1
			// writeBounded(v-minV, maxV-minV), inlined against the local
			// accumulator.
			if rng := hi - uint32(end-start-1-m) - minV; rng != 0 {
				x := v - minV
				k := uint(bits.Len32(rng))
				u := uint32(1)<<k - rng - 1
				var vb uint64
				var nb uint
				if x < u {
					vb, nb = uint64(x), k-1
				} else {
					vb = uint64(u+(x-u)>>1) | (uint64(x-u)&1)<<(k-1)
					nb = k
				}
				acc |= (vb & (1<<nb - 1)) << nacc
				nacc += nb
				if nacc >= 32 {
					buf = append(buf, byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24))
					acc >>= 32
					nacc -= 32
				}
			}
			if start+m+1 < end {
				w.stk[sp] = interiorFrame{start: start + m + 1, end: end, lo: v, hi: hi}
				sp++
			}
			end, hi = start+m, v-1
		}
		if sp == 0 {
			break
		}
		sp--
		f := w.stk[sp]
		start, end, lo, hi = f.start, f.end, f.lo, f.hi
	}
	w.acc, w.nacc, w.buf = acc, nacc, buf
}

// readInterior mirrors writeInterior into s, which already has its length.
func (r *bitReader) readInterior(s cnf.Clause, lo, hi uint32) error {
	for len(s) > 0 {
		if uint64(hi)-uint64(lo) < uint64(len(s)) {
			return errBitStream // no strictly-increasing fit: corrupt frame
		}
		m := len(s) / 2
		minV := lo + uint32(m) + 1
		maxV := hi - uint32(len(s)-1-m)
		x, err := r.readBounded(maxV - minV)
		if err != nil {
			return err
		}
		v := minV + x
		s[m] = cnf.Lit(v)
		if m > 0 {
			if err := r.readInterior(s[:m], lo, v-1); err != nil {
				return err
			}
		}
		s = s[m+1:]
		lo = v
	}
	return nil
}

// blockLitsPerByte bounds what a clause block may decode to. A clause costs
// at least one bit of the stream, but a literal can cost none (an interior
// literal whose feasible range has collapsed to one value), so a few KiB
// can claim 2^24 clauses of 2^20 literals each. readClauseBlock therefore
// trusts neither count: it sizes the clause slice for at most one clause
// per byte it was given (append grows it for the rare denser block),
// carves the clauses from a cnf.Slab that grows only as literals arrive,
// and charges every literal against this many per byte. A clause that is
// not a tautology costs about a bit per literal or more — 8 per byte — so
// only a block no encoder of real clauses emits runs out.
const blockLitsPerByte = 16

// readClauseBlock decodes a clause block; buf must start at the uvarint
// clause count and extend at least to the end of the bitstream.
func readClauseBlock(buf []byte) ([]cnf.Clause, []byte, error) {
	br := bytes.NewReader(buf)
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if n > maxClausesPerFrame {
		return nil, nil, fmt.Errorf("comm: clause count %d exceeds limit", n)
	}
	rest := buf[len(buf)-br.Len():]
	if n == 0 {
		return []cnf.Clause{}, rest, nil
	}
	maxLit, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if maxLit > uint64(^uint32(0)) {
		return nil, nil, fmt.Errorf("comm: max literal %d out of range", maxLit)
	}
	rest = buf[len(buf)-br.Len():]
	r := bitReader{buf: rest}
	out := make([]cnf.Clause, 0, min(n, uint64(len(rest))))
	var slab cnf.Slab
	budget := blockLitsPerByte*len(rest) + 64 // literals left to decode
	prevLen := uint64(0)
	prevFirst := int64(0)
	for i := uint64(0); i < n; i++ {
		g, err := r.readGamma()
		if err != nil {
			return nil, nil, err
		}
		l := prevLen + g - 1
		if l > uint64(budget) {
			return nil, nil, fmt.Errorf("comm: clause block decodes to more than %d literals per byte", blockLitsPerByte)
		}
		budget -= int(l)
		if l > cnf.MaxClauseSize {
			return nil, nil, fmt.Errorf("comm: clause length %d exceeds limit", l)
		}
		prevLen = l
		if l == 0 {
			out = append(out, cnf.Clause{})
			continue
		}
		c := slab.Carve(int(l))
		g, err = r.readGamma()
		if err != nil {
			return nil, nil, err
		}
		u := g - 1
		first := prevFirst + (int64(u>>1) ^ -int64(u&1))
		if first < 0 || first > int64(maxLit) {
			return nil, nil, fmt.Errorf("comm: literal %d out of range", first)
		}
		prevFirst = first
		c[0] = cnf.Lit(first)
		if l > 1 {
			if err := r.readInterior(c[1:], uint32(first), uint32(maxLit)); err != nil {
				return nil, nil, err
			}
		}
		out = append(out, c)
	}
	return out, rest[r.pos:], nil
}
