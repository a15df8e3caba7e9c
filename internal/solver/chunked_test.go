package solver

import (
	"fmt"
	"reflect"
	"testing"

	"gridsat/internal/gen"
)

// solveChunked runs one quantum of at most `quantum` propagations as
// resumed Solve calls of at most `chunk` each — the loop the DES's workers
// run (core.searchQuantum) to publish progress between the calls.
func solveChunked(s *Solver, lim Limits, chunk int64) Result {
	quantum := lim.MaxPropagations
	start := s.Stats().Propagations
	for done := int64(0); ; {
		lim.MaxPropagations = chunk
		if rest := quantum - done; rest < chunk {
			lim.MaxPropagations = rest
		}
		res := s.Solve(lim)
		done = s.Stats().Propagations - start
		if res.Reason != ReasonPropLimit || done >= quantum {
			return res
		}
	}
}

// TestChunkedSliceIsTheSameSearch is what lets the simulator compute a
// client's quantum in pieces: Solve checks its limits at the top of its
// loop, before every propagate, so a call that stops at a propagation limit
// and the call that resumes it take exactly the steps one longer call
// takes. For both presets, slices of 5000 propagations run as one Solve and
// as chunks of 1, 7 and 256 must agree on the Result and on every Stats
// field at every slice boundary — up to the verdict, and, in the arm whose
// memory budget is too small for the clause database, through 80 slices of
// ReasonMemLimit and the shedding a client answers it with.
func TestChunkedSliceIsTheSameSearch(t *testing.T) {
	const quantum = 5000
	f := gen.Pigeonhole(8)
	presets := map[string]func() Options{"Fidelity2003": Fidelity2003, "DefaultOptions": DefaultOptions}
	for name, preset := range presets {
		// Problem clauses plus a few hundred learnts: the database outgrows
		// it within the first slices and keeps doing so after each shed.
		tight := New(f, preset()).MemoryBytes() + 64<<10
		for _, mem := range []int64{0, tight} {
			type boundary struct {
				res   Result
				stats Stats
			}
			run := func(chunk int64) (out []boundary, memLimited int) {
				s := New(f, preset())
				for len(out) < 80 {
					lim := Limits{MaxPropagations: quantum, MaxMemoryBytes: mem}
					var res Result
					if chunk == 0 {
						res = s.Solve(lim)
					} else {
						res = solveChunked(s, lim, chunk)
					}
					out = append(out, boundary{res, s.Stats()})
					if res.Status != StatusUnknown {
						return out, memLimited
					}
					if res.Reason == ReasonMemLimit {
						memLimited++
						s.ShedMemory()
					}
				}
				return out, memLimited
			}
			want, memLimited := run(0)
			t.Run(fmt.Sprintf("%s/mem=%d", name, mem), func(t *testing.T) {
				if last := want[len(want)-1].res; mem == 0 && last.Status != StatusUNSAT {
					t.Fatalf("reference run ended %v/%v after %d slices", last.Status, last.Reason, len(want))
				}
				if (mem != 0) != (memLimited > 0) {
					t.Fatalf("budget %d: %d memory-limited slices of %d", mem, memLimited, len(want))
				}
				for _, chunk := range []int64{1, 7, 256} {
					got, _ := run(chunk)
					if len(got) != len(want) {
						t.Fatalf("chunk %d: %d slices, one Solve per slice takes %d", chunk, len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("chunk %d, slice %d:\n got %+v\nwant %+v", chunk, i, got[i], want[i])
						}
					}
				}
				t.Logf("%d slices, %d memory-limited", len(want), memLimited)
			})
		}
	}
}
