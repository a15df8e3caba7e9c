// Package harness is gridbench's plumbing: building the shipped binaries,
// booting and stopping a loopback cluster, the /jobs HTTP client, the
// /metrics parser, span recording and the small statistics the report
// needs. It never imports the program's packages: everything here touches
// the system the way a user does.
package harness

import (
	"errors"
	"math"
	"sort"
)

// ErrIncorrect marks a wrong verdict, an invalid model or a simulator
// that did not repeat itself: the run's numbers must not be used.
var ErrIncorrect = errors.New("incorrect output")

// Quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// HighestPercentile returns the highest of the percentiles 99.9, 99, 95, 90
// and 75 that still has at least ten samples beyond it in a sample of n, or
// 0 when even the lowest has not.
func HighestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			return p
		}
	}
	return 0
}

// Spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method: positions (n+1)/4 and 3(n+1)/4).
func Spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based position in the sorted sample
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	q1, q3 := at(float64(n+1)/4), at(3*float64(n+1)/4)
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}
