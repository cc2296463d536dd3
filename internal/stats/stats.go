// Package stats summarises sample sets: mean, standard deviation,
// min/max and percentiles. Every experiment cell is one deterministic
// run, so there is no repeat-until-stable loop and no outlier filter.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoSamples is returned by operations that need at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 for fewer than two samples.
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary condenses a sample set.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary over xs. It returns ErrNoSamples for an
// empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		Stddev: Stddev(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    percentileSorted(s, 50),
		P95:    percentileSorted(s, 95),
		P99:    percentileSorted(s, 99),
	}, nil
}
