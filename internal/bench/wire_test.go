package bench

import (
	"testing"

	"gridsat/internal/comm"
	"gridsat/internal/gen"
)

// captureOrSkip grabs real learned-clause traffic from a short solver run.
func captureOrSkip(t testing.TB) []comm.ShareClauses {
	t.Helper()
	batches := CaptureShareTraffic(gen.Pigeonhole(9), 20, 16, 5000)
	if len(batches) < 4 {
		t.Skipf("capture produced only %d batches", len(batches))
	}
	return batches
}

// encodeAll frames every batch and returns the frames and their total size.
func encodeAll(t testing.TB, batches []comm.ShareClauses) ([]*comm.EncodedMessage, int64) {
	t.Helper()
	frames := make([]*comm.EncodedMessage, len(batches))
	var total int64
	for i, b := range batches {
		e, err := comm.EncodeMessage(b)
		if err != nil {
			t.Fatalf("batch %d: encode: %v", i, err)
		}
		frames[i] = e
		total += int64(e.WireLen())
	}
	return frames, total
}

// TestWireRoundtripOnRealTraffic decodes every frame back and checks
// nothing is lost: same clause multiset per batch (modulo the clause
// block's canonical ordering).
func TestWireRoundtripOnRealTraffic(t *testing.T) {
	batches := captureOrSkip(t)
	frames, _ := encodeAll(t, batches)
	for i, b := range batches {
		m, err := frames[i].Decode()
		if err != nil {
			t.Fatalf("batch %d: decode: %v", i, err)
		}
		got, ok := m.(comm.ShareClauses)
		if !ok {
			t.Fatalf("batch %d: decoded %T", i, m)
		}
		if got.From != b.From || len(got.Clauses) != len(b.Clauses) {
			t.Fatalf("batch %d: decoded %d clauses from %d, want %d from %d",
				i, len(got.Clauses), got.From, len(b.Clauses), b.From)
		}
		want := map[uint64]int{}
		for _, c := range b.Clauses {
			want[c.Fingerprint()]++
		}
		for _, c := range got.Clauses {
			want[c.Fingerprint()]--
		}
		for fp, n := range want {
			if n != 0 {
				t.Fatalf("batch %d: clause multiset mismatch at fingerprint %x (%+d)", i, fp, n)
			}
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	batches := captureOrSkip(b)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		_, total = encodeAll(b, batches)
	}
	var lits int
	for _, batch := range batches {
		for _, c := range batch.Clauses {
			lits += len(c)
		}
	}
	b.ReportMetric(float64(total)/float64(lits), "B/lit")
	b.ReportMetric(float64(total)/float64(len(batches)), "B/batch")
}

func BenchmarkWireDecode(b *testing.B) {
	frames, _ := encodeAll(b, captureOrSkip(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range frames {
			if _, err := e.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The two fan-out arms price the master's share broadcast to 16 peers:
// serialize each batch once and hand every peer the same frame (what the
// master does), against a fresh serialization per peer.
const fanoutPeers = 16

func BenchmarkShareFanoutEncodeOnce(b *testing.B) {
	batches := captureOrSkip(b)
	b.ResetTimer()
	var sent int64
	for i := 0; i < b.N; i++ {
		frames, _ := encodeAll(b, batches)
		for _, e := range frames {
			sent += fanoutPeers * int64(e.WireLen()) // same frame, no re-encode
		}
	}
	_ = sent
}

func BenchmarkShareFanoutEncodePerPeer(b *testing.B) {
	batches := captureOrSkip(b)
	b.ResetTimer()
	var sent int64
	for i := 0; i < b.N; i++ {
		for p := 0; p < fanoutPeers; p++ {
			_, n := encodeAll(b, batches)
			sent += n
		}
	}
	_ = sent
}
