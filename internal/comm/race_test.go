//go:build race

package comm

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, on purpose, so allocation guards over pooled scratch are skipped.
const raceEnabled = true
