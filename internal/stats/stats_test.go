package stats

import (
	"math"
	"testing"
	"testing/quick"

	"svtsim/internal/qcheck"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("stddev of one sample should be 0")
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(got, math.Sqrt(32.0/7.0)) {
		t.Fatalf("stddev = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {90, 46},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Fatal("expected ErrNoSamples")
	}
	s, err := Summarize([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !almost(s.Mean, 2.5) || !almost(s.P50, 2.5) {
		t.Fatalf("summary = %+v", s)
	}
}

// Property: percentile output is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(prop, qcheck.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []float64{1, 5, 12, 15, 99} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if !almost(h.Mean(), (1+5+12+15+99)/5.0) {
		t.Fatalf("mean = %v", h.Mean())
	}
	if got := h.Percentile(100); got != 99 {
		t.Fatalf("p100 = %v", got)
	}
	if h.String() == "(empty histogram)" {
		t.Fatal("non-empty histogram rendered as empty")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.String() != "(empty histogram)" {
		t.Fatal("empty histogram should say so")
	}
	if h.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestHistogramBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	NewHistogram(0)
}

func TestHistogramSamplesCopy(t *testing.T) {
	h := NewHistogram(1)
	h.Add(3)
	s := h.Samples()
	s[0] = 99
	if h.Percentile(50) != 3 {
		t.Fatal("Samples must return a copy")
	}
}
