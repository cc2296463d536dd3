// Package stats summarises sample sets: mean and percentiles. Every
// experiment cell is one deterministic run, so there is no
// repeat-until-stable loop and no outlier filter.
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

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 { return Percentiles(xs, p)[0] }

// Percentiles returns the p-th percentile of xs for each p in ps, as
// Percentile does, from one sorted copy of xs.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
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
	Mean float64
	P50  float64
	P99  float64
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
		Mean: Mean(s),
		P50:  percentileSorted(s, 50),
		P99:  percentileSorted(s, 99),
	}, nil
}
