package comm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/solver"
)

// canonClauses puts a clause batch in codec-canonical order so tests can
// compare decoded output against semantically-equal input.
func canonClauses(cs []cnf.Clause) []cnf.Clause { return canonicalize(cs, nil) }

// frameID is the first byte of an untraced frame of m's kind.
func frameID(m Message) byte { return kindByType[reflect.TypeOf(m)].id }

func randClauses(r *rand.Rand, n, vars, maxLen int) []cnf.Clause {
	out := make([]cnf.Clause, n)
	for i := range out {
		l := 1 + r.Intn(maxLen)
		c := make(cnf.Clause, l)
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(r.Intn(vars)), r.Intn(2) == 0)
		}
		out[i] = c
	}
	return out
}

// TestShareClausesBinaryRoundtrip checks the bit-packed clause block
// reproduces the batch exactly up to the codec's declared canonicalization
// (sorted literals per clause, shortest-first clause order), across
// random batches, large variable ranges, and degenerate shapes.
func TestShareClausesBinaryRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := [][]cnf.Clause{
		nil,
		{},
		{{}},
		{cnf.NewClause(5)},
		{cnf.NewClause(-1, 2, -3), cnf.NewClause(3, 3, 3), cnf.NewClause(1)},
		randClauses(r, 100, 50, 10),
		randClauses(r, 500, 100_000, 12),
		randClauses(r, 32, 1_000_000, 6),
	}
	for i, cs := range cases {
		in := ShareClauses{From: i - 2, Clauses: cs}
		e, err := EncodeMessage(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := e.Decode()
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		out, ok := got.(ShareClauses)
		if !ok {
			t.Fatalf("case %d: decoded %T", i, got)
		}
		if out.From != in.From {
			t.Errorf("case %d: From = %d, want %d", i, out.From, in.From)
		}
		want := canonClauses(cs)
		if len(out.Clauses) != len(want) {
			t.Fatalf("case %d: %d clauses, want %d", i, len(out.Clauses), len(want))
		}
		for j := range want {
			if !reflect.DeepEqual(out.Clauses[j], want[j]) {
				t.Fatalf("case %d clause %d: got %v want %v", i, j, out.Clauses[j], want[j])
			}
		}
	}
}

// TestCanonicalOrderIsShortestFirst pins the property the sharing
// pipeline relies on: decoded batches come back shortest clause first, so
// a receiver that imports a truncated prefix keeps the most valuable
// clauses.
func TestCanonicalOrderIsShortestFirst(t *testing.T) {
	cs := []cnf.Clause{
		cnf.NewClause(1, 2, 3, 4),
		cnf.NewClause(7),
		cnf.NewClause(-2, 5),
	}
	e, err := EncodeMessage(ShareClauses{Clauses: cs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out := got.(ShareClauses).Clauses
	if !sort.SliceIsSorted(out, func(i, j int) bool { return len(out[i]) < len(out[j]) }) {
		t.Fatalf("decoded batch not shortest-first: %v", out)
	}
}

// TestEncodeDoesNotMutateInput guards the canonicalization against
// reordering the caller's clauses in place: OnLearn hands the aggregator
// clauses whose literal order other code may still observe.
func TestEncodeDoesNotMutateInput(t *testing.T) {
	c := cnf.NewClause(3, -1, 2)
	orig := c.Clone()
	cs := []cnf.Clause{cnf.NewClause(9, 8), c}
	origOrder := []cnf.Clause{cs[0], cs[1]}
	if _, err := EncodeMessage(ShareClauses{Clauses: cs}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, orig) {
		t.Errorf("encode reordered the caller's literals: %v", c)
	}
	for i := range cs {
		if &cs[i][0] != &origOrder[i][0] {
			t.Errorf("encode reordered the caller's slice")
		}
	}
}

// TestSplitPayloadBinaryRoundtrip checks the hot split message: the
// assumptions (a trail prefix whose order is semantic) must survive
// verbatim, while learned clauses may canonicalize.
func TestSplitPayloadBinaryRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	assum := make([]cnf.Lit, 40)
	for i := range assum {
		assum[i] = cnf.MkLit(cnf.Var(r.Intn(5000)), i%3 == 0)
	}
	in := SplitPayload{
		SplitID: 1234,
		Subs: []*solver.Subproblem{{
			NumVars:     5000,
			Depth:       11,
			Assumptions: assum,
			Learnts:     randClauses(r, 64, 5000, 8),
		}},
	}
	e, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out := got.(SplitPayload)
	if out.SplitID != in.SplitID || out.Job != in.Job {
		t.Fatalf("header mangled: %+v", out)
	}
	if len(out.Subs) != 1 {
		t.Fatalf("decoded %d subproblems, want 1", len(out.Subs))
	}
	if out.Subs[0].NumVars != in.Subs[0].NumVars || out.Subs[0].Depth != in.Subs[0].Depth {
		t.Errorf("NumVars/Depth = %d/%d, want %d/%d",
			out.Subs[0].NumVars, out.Subs[0].Depth, in.Subs[0].NumVars, in.Subs[0].Depth)
	}
	if !reflect.DeepEqual(out.Subs[0].Assumptions, in.Subs[0].Assumptions) {
		t.Error("assumption order not preserved")
	}
	want := canonClauses(in.Subs[0].Learnts)
	if !reflect.DeepEqual(out.Subs[0].Learnts, want) {
		t.Error("learnts did not round-trip")
	}

	// An empty batch (protocol edge) must survive too.
	e, err = EncodeMessage(SplitPayload{SplitID: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err = e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if sp := got.(SplitPayload); len(sp.Subs) != 0 || sp.SplitID != 5 {
		t.Fatalf("empty-batch payload mangled: %+v", sp)
	}
}

// TestSplitPayloadMultiSubRoundtrip drives the batch form the dilemma
// strategy ships: several cofactors with distinct assumptions and depths
// in one frame, order preserved.
func TestSplitPayloadMultiSubRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	in := SplitPayload{SplitID: 88}
	for i := 0; i < 7; i++ {
		assum := make([]cnf.Lit, 3+i)
		for j := range assum {
			assum[j] = cnf.MkLit(cnf.Var(r.Intn(900)), (i+j)%2 == 0)
		}
		in.Subs = append(in.Subs, &solver.Subproblem{
			NumVars:     900,
			Depth:       4 + i,
			Assumptions: assum,
			Learnts:     randClauses(r, 1+i%3, 900, 6),
		})
	}
	e, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	out := got.(SplitPayload)
	if out.SplitID != in.SplitID || out.Job != in.Job || len(out.Subs) != len(in.Subs) {
		t.Fatalf("header/batch mangled: %+v", out)
	}
	for i, sub := range out.Subs {
		if sub.NumVars != in.Subs[i].NumVars || sub.Depth != in.Subs[i].Depth {
			t.Errorf("sub %d NumVars/Depth = %d/%d, want %d/%d",
				i, sub.NumVars, sub.Depth, in.Subs[i].NumVars, in.Subs[i].Depth)
		}
		if !reflect.DeepEqual(sub.Assumptions, in.Subs[i].Assumptions) {
			t.Errorf("sub %d assumptions mangled", i)
		}
		if !reflect.DeepEqual(sub.Learnts, canonClauses(in.Subs[i].Learnts)) {
			t.Errorf("sub %d learnts did not round-trip", i)
		}
	}
}

// TestEveryKindRoundtrip is the codec's structural check: every kind,
// every field (see allMessages), through EncodeMessage and Decode, plain
// and inside a trace envelope. A second encode of the decoded value must
// reproduce the frame byte for byte.
func TestEveryKindRoundtrip(t *testing.T) {
	for _, in := range allMessages() {
		for _, want := range []Message{in, Traced{Info: TraceInfo{Lamport: 1234, Parent: 77}, Msg: in}} {
			e, err := EncodeMessage(want)
			if err != nil {
				t.Fatalf("%s: %v", in.Kind(), err)
			}
			if e.Kind() != in.Kind() {
				t.Errorf("frame kind %q, want %q", e.Kind(), in.Kind())
			}
			got, err := e.Decode()
			if err != nil {
				t.Fatalf("%s: decode: %v", in.Kind(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: payload mangled:\n got %+v\nwant %+v", in.Kind(), got, want)
			}
			again, err := EncodeMessage(got)
			if err != nil || !bytes.Equal(again.Frame(), e.Frame()) {
				t.Errorf("%s: re-encoding the decoded message changed the frame (%v)", in.Kind(), err)
			}
		}
	}
}

// TestBaseProblemTravelsVerbatim: the formula is not learned-clause
// traffic. Clause order, literal order and duplicate literals all survive,
// so a TCP client seeds its solver exactly as the master's copy would.
func TestBaseProblemTravelsVerbatim(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Built the way the decoder builds it, each clause carved from the
	// formula's slab, so the whole value compares equal.
	f := &cnf.Formula{NumVars: 300, Comment: "verbatim"}
	for _, cl := range randClauses(r, 400, 300, 9) {
		c := f.Carve(len(cl))
		copy(c, cl)
		f.Clauses = append(f.Clauses, c)
	}
	if reflect.DeepEqual(f.Clauses, canonClauses(f.Clauses)) {
		t.Fatal("test formula is already canonical; it would not notice a reordering")
	}
	e, err := EncodeMessage(BaseProblem{Formula: f})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(BaseProblem).Formula, f) {
		t.Fatal("decoded formula differs from the one sent")
	}
	// A nil formula is representable too.
	e, _ = EncodeMessage(BaseProblem{Job: 1})
	if got, err = e.Decode(); err != nil || !reflect.DeepEqual(got, BaseProblem{Job: 1}) {
		t.Fatalf("nil formula: %+v, %v", got, err)
	}
}

// TestUnknownMessageTypeDoesNotEncode: the kind table is the protocol; a
// message type outside it has no frame.
func TestUnknownMessageTypeDoesNotEncode(t *testing.T) {
	if _, err := EncodeMessage(strangeMessage{}); err == nil {
		t.Fatal("a message type with no kind encoded")
	}
	if WireSize(strangeMessage{}) != 0 {
		t.Fatal("WireSize of an unencodable message must be 0")
	}
}

type strangeMessage struct{}

func (strangeMessage) Kind() string { return "status" }

// TestEncodedMessagePassthrough: encoding an already-encoded message is
// the identity, so fan-out code can be oblivious to what it queues.
func TestEncodedMessagePassthrough(t *testing.T) {
	e, err := EncodeMessage(ShareClauses{From: 1, Clauses: []cnf.Clause{cnf.NewClause(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeMessage(e)
	if err != nil {
		t.Fatal(err)
	}
	if again != e {
		t.Fatal("re-encoding an EncodedMessage must be the identity")
	}
	if e.Kind() != "share-clauses" {
		t.Fatalf("Kind() = %q", e.Kind())
	}
	if e.WireLen() != len(e.frame) {
		t.Fatalf("WireLen %d != frame %d", e.WireLen(), len(e.frame))
	}
}

// TestDecodeRejectsCorruptFrames feeds truncated and hostile frames to
// the decoder; it must error, never panic or over-allocate.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good, err := EncodeMessage(ShareClauses{From: 3, Clauses: []cnf.Clause{cnf.NewClause(1, -2, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good.frame); cut++ {
		e := &EncodedMessage{kind: good.kind, frame: good.frame[:cut]}
		if _, err := e.Decode(); err == nil {
			t.Errorf("truncated frame at %d/%d decoded", cut, len(good.frame))
		}
	}
	share, split, status := frameID(ShareClauses{}), frameID(SplitPayload{}), frameID(StatusReport{})
	hostile := [][]byte{
		{0x00},                          // the retired gob codec ID
		{0x00, 0x00},                    // ... with an empty payload
		{0x42, 0x00},                    // unknown kind ID
		{share, 0xff, 0xff, 0xff, 0x7f}, // length prefix >> body
		{share, 0x03, 0x00, 0x00, 0xff}, // clause count then garbage
		{split, 0x01, 0x02},             // truncated header
		{status, 0x01, 0x80},            // unterminated varint
		{share, 0x07, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x7f}, // huge clause count
		{frameID(Shutdown{}), 0x01, 0x00},                       // bytes after the last field
		{frameID(RegisterAck{}), 0x03, 0x02, 0x02, 0x00},        // boolean byte 2
		{frameID(SplitAssign{}), 0x02, 0x02, 0x7f},              // list count the payload cannot hold
		{frameID(Register{}), 0x02, 0x7f, 0x41},                 // string length past the payload
	}
	for i, f := range hostile {
		e := &EncodedMessage{kind: "x", frame: f}
		if _, err := e.Decode(); err == nil {
			t.Errorf("hostile frame %d decoded", i)
		}
	}
}

// TestWireSizeMatchesFrames pins WireSize to the exact frame length: for
// the fixture of every kind, traced and untraced, for a share batch that is
// not in canonical order (the one input canonicalize has to clone), and for
// a pre-encoded frame — and to doing it without allocating, because the DES
// prices every message of a run through it on its one event loop.
func TestWireSizeMatchesFrames(t *testing.T) {
	msgs := append(allMessages(),
		ShareClauses{From: 2, Clauses: []cnf.Clause{cnf.NewClause(3, 1, -2, 3), cnf.NewClause(3), cnf.NewClause(-7, 4)}})
	for _, m := range allMessages() {
		msgs = append(msgs, Traced{Info: TraceInfo{Lamport: 1 << 20, Parent: 300}, Msg: m})
	}
	for _, m := range msgs {
		e, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := WireSize(m); got != int64(e.WireLen()) {
			t.Errorf("WireSize(%T %s) = %d, frame is %d bytes", m, m.Kind(), got, e.WireLen())
		}
		if got := WireSize(e); got != int64(e.WireLen()) {
			t.Errorf("WireSize(encoded %s) = %d, frame is %d bytes", m.Kind(), got, e.WireLen())
		}
	}
	if raceEnabled {
		return
	}
	// The first pass above grew the pooled scratch to fit every fixture.
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			WireSize(m)
		}
	}); n != 0 {
		t.Errorf("WireSize allocates: %v allocations per pass over %d messages", n, len(msgs))
	}
}

// TestHostileLengthPrefixAllocatesLittle: the length prefix is the
// sender's claim, not a fact. A ten-byte frame that announces a gigabyte
// must fail on the missing bytes without the gigabyte ever being reserved.
func TestHostileLengthPrefixAllocatesLittle(t *testing.T) {
	frame := binary.AppendUvarint([]byte{frameID(ShareClauses{})}, CapBulk)
	frame = append(frame, 0x02, 0x00, 0x01, 0x00)
	if len(frame) != 10 {
		t.Fatalf("frame is %d bytes, want 10", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := (&EncodedMessage{frame: frame}).Decode()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame ten bytes long claiming 1 GiB decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("decoding allocated %d bytes, want < 2 MiB", got)
	}
}

// TestPerKindPayloadCap: kinds that carry no clauses, subproblems, formula
// or model are capped at 64 KiB on both sides.
func TestPerKindPayloadCap(t *testing.T) {
	frame := binary.AppendUvarint([]byte{frameID(Register{})}, 1<<20)
	frame = append(frame, make([]byte, 1<<20)...)
	if _, err := (&EncodedMessage{frame: frame}).Decode(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("a register frame claiming 1 MiB: %v", err)
	}
	if _, err := EncodeMessage(Register{HostName: strings.Repeat("h", 1<<20)}); err == nil {
		t.Fatal("a 1 MiB register message encoded")
	}
	bulk := map[string]bool{}
	for _, m := range []Message{ShareClauses{}, SplitPayload{}, SplitDone{}, BaseProblem{}, Solved{}} {
		bulk[m.Kind()] = true
	}
	for _, m := range allMessages() {
		want := 64 << 10
		if bulk[m.Kind()] {
			want = 1 << 30
		}
		if got := kindByType[reflect.TypeOf(m)].limit; got != want {
			t.Errorf("%s: payload cap %d, want %d", m.Kind(), got, want)
		}
	}
}

// The decoder's clause-length limit is the parser's and the solver's,
// cnf.MaxClauseSize: a block of real clauses one literal longer is
// refused, one at the limit decodes.
func TestClauseBlockLengthLimitIsMaxClauseSize(t *testing.T) {
	for _, n := range []int{cnf.MaxClauseSize, cnf.MaxClauseSize + 1} {
		c := make(cnf.Clause, n)
		for i := range c {
			c[i] = cnf.Lit(8*i + i%7) // sparse, so the block pays bits for every literal
		}
		e, err := EncodeMessage(ShareClauses{From: 1, Clauses: []cnf.Clause{c}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Decode()
		if n > cnf.MaxClauseSize {
			if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Fatalf("clause of %d literals: err = %v, want the length limit to refuse it", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("clause of %d literals: %v", n, err)
		}
		if cs := got.(ShareClauses).Clauses; len(cs) != 1 || !slices.Equal(cs[0], c) {
			t.Fatalf("clause of %d literals did not survive the round trip", n)
		}
	}
}

// A block's clauses share one slab; appending to one must not reach the next.
func TestClauseBlockClausesDoNotAlias(t *testing.T) {
	in := []cnf.Clause{cnf.NewClause(1, 2), cnf.NewClause(3, 4), cnf.NewClause(-5, 6, 7)}
	e, err := EncodeMessage(ShareClauses{From: 1, Clauses: in})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	cs := got.(ShareClauses).Clauses
	next := slices.Clone(cs[1])
	_ = append(cs[0], cnf.PosLit(0))
	if !slices.Equal(cs[1], next) {
		t.Fatalf("appending to clause 0 rewrote clause 1: %v, was %v", cs[1], next)
	}
}
