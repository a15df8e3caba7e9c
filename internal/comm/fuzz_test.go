package comm

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/solver"
)

// FuzzSplitPayloadRoundTrip drives the multi-subproblem split codec with
// generated batches: arbitrary sub counts (including empty), assumption
// lists whose order is semantic, depths, and learnt blocks must all
// round-trip through the binary frame.
func FuzzSplitPayloadRoundTrip(f *testing.F) {
	f.Add(int64(1), 0, 10, 0)
	f.Add(int64(2), 1, 100, 3)
	f.Add(int64(3), 3, 5000, 8)
	f.Add(int64(4), 7, 40, 1)
	f.Add(int64(5), 15, 900, 5)
	f.Fuzz(func(t *testing.T, seed int64, nSubs, nVars, maxLen int) {
		if nSubs < 0 || nSubs > 64 || nVars < 1 || nVars > 1<<20 || maxLen < 0 || maxLen > 32 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		in := SplitPayload{SplitID: int(r.Int31()), Job: r.Intn(4)}
		for i := 0; i < nSubs; i++ {
			sub := &solver.Subproblem{NumVars: nVars, Depth: r.Intn(64)}
			for j := r.Intn(20); j > 0; j-- {
				sub.Assumptions = append(sub.Assumptions,
					cnf.MkLit(cnf.Var(r.Intn(nVars)), r.Intn(2) == 0))
			}
			if maxLen > 0 {
				sub.Learnts = randClauses(r, r.Intn(8), nVars, maxLen)
			}
			in.Subs = append(in.Subs, sub)
		}
		e, err := EncodeMessage(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Decode()
		if err != nil {
			t.Fatalf("decode of a well-formed frame failed: %v", err)
		}
		out, ok := got.(SplitPayload)
		if !ok {
			t.Fatalf("decoded %T", got)
		}
		if out.SplitID != in.SplitID {
			t.Fatalf("split ID mangled: got %d, want %d", out.SplitID, in.SplitID)
		}
		if out.Job != in.Job {
			t.Fatalf("job tag mangled: got %d, want %d", out.Job, in.Job)
		}
		if len(out.Subs) != len(in.Subs) {
			t.Fatalf("decoded %d subs, want %d", len(out.Subs), len(in.Subs))
		}
		for i, sub := range out.Subs {
			want := in.Subs[i]
			if sub.NumVars != want.NumVars || sub.Depth != want.Depth {
				t.Fatalf("sub %d NumVars/Depth %d/%d, want %d/%d",
					i, sub.NumVars, sub.Depth, want.NumVars, want.Depth)
			}
			if len(sub.Assumptions) != len(want.Assumptions) ||
				(len(want.Assumptions) > 0 && !reflect.DeepEqual(sub.Assumptions, want.Assumptions)) {
				t.Fatalf("sub %d assumptions mangled: %v, want %v", i, sub.Assumptions, want.Assumptions)
			}
			wantLearnts := canonClauses(want.Learnts)
			if len(sub.Learnts) != len(wantLearnts) ||
				(len(wantLearnts) > 0 && !reflect.DeepEqual(sub.Learnts, wantLearnts)) {
				t.Fatalf("sub %d learnts mangled", i)
			}
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder: it must
// reject or decode, never panic — and whatever it accepts must encode
// again. The corpus starts from one valid frame of every kind, plain and
// traced, so mutation reaches every field list.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range allMessages() {
		for _, m := range []Message{m, Traced{Info: TraceInfo{Lamport: 9, Parent: 2}, Msg: m}} {
			e, err := EncodeMessage(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(e.Frame())
		}
	}
	split := frameID(SplitPayload{})
	f.Add([]byte{0x00})                         // the retired gob codec ID
	f.Add([]byte{0x0d, 0x00})                   // a retired kind ID
	f.Add([]byte{0x0d | frameTracedFlag, 0x00}) // the same, traced
	f.Add([]byte{split})
	f.Add([]byte{split, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{split | frameTracedFlag, 0x01, 0x02, 0x03})
	f.Add(hostileShareFrame(1<<20, 512))
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := (&EncodedMessage{frame: frame}).Decode()
		if err != nil {
			return
		}
		if _, err := EncodeMessage(m); err != nil {
			t.Fatalf("decoded %s does not encode: %v", m.Kind(), err)
		}
	})
}

// hostileShareFrame is a share frame whose clause block, about size bytes
// long, claims 2^24 clauses of clauseLen literals each and pays almost
// nothing for them: the first clause's interior literals exactly fill
// (0, maxLit], so each costs no bits, and every later clause repeats the
// first for two bits.
func hostileShareFrame(clauseLen uint64, size int) []byte {
	var c coder
	from, job := 0, 0
	c.int(&from)
	c.int(&job)
	b := binary.AppendUvarint(c.buf, maxClausesPerFrame)
	b = binary.AppendUvarint(b, clauseLen-1) // block-wide maximum literal
	var w bitWriter
	w.writeGamma(clauseLen + 1) // length, as a delta from 0
	w.writeGamma(1)             // first literal 0
	for len(w.buf) < size {
		w.writeGamma(1) // same length
		w.writeGamma(1) // same first literal
	}
	b = append(b, w.finish()...)
	frame := binary.AppendUvarint([]byte{frameID(ShareClauses{})}, uint64(len(b)))
	return append(frame, b...)
}

// TestClauseBlockAllocationIsBoundedByItsBytes: a block of at most 4 KiB
// that claims gigabytes must be refused having allocated under 1 MiB —
// whether one clause alone breaks the budget or thousands of modest ones
// add up to it.
func TestClauseBlockAllocationIsBoundedByItsBytes(t *testing.T) {
	for _, clauseLen := range []uint64{1 << 20, 1000} {
		frame := hostileShareFrame(clauseLen, 4000)
		if len(frame) > 4096 {
			t.Fatalf("hostile frame is %d bytes, want <= 4096", len(frame))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := (&EncodedMessage{frame: frame}).Decode()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "literals per byte") {
			t.Fatalf("clauses of %d literals: err = %v, want the decode budget to refuse the block", clauseLen, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("clauses of %d literals: refusing a %d-byte frame allocated %d bytes", clauseLen, len(frame), got)
		}
	}
}
