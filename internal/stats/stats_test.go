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

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if lo, hi := Percentile(xs, 0), Percentile(xs, 100); lo != -1 || hi != 7 {
		t.Fatalf("P0/P100 = %v/%v, want -1/7", lo, hi)
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

// Percentiles reads each percentile exactly as Percentile does, leaves
// its input alone and answers zeros for no samples.
func TestPercentilesMatchPercentile(t *testing.T) {
	xs := []float64{40, 10, 50, 30, 20, 35}
	ps := []float64{0, 25, 50, 90, 99, 99.9, 100}
	got := Percentiles(xs, ps...)
	for i, p := range ps {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("P%v = %v, Percentile says %v", p, got[i], want)
		}
	}
	if xs[0] != 40 || xs[1] != 10 {
		t.Fatal("Percentiles mutated its input")
	}
	if q := Percentiles(nil, 50, 99); len(q) != 2 || q[0] != 0 || q[1] != 0 {
		t.Fatalf("Percentiles of no samples = %v, want [0 0]", q)
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
	if !almost(s.Mean, 2.5) || !almost(s.P50, 2.5) || !almost(s.P99, 3.97) {
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
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return v1 <= v2+1e-9 && v1 >= lo-1e-9 && v2 <= hi+1e-9
	}
	if err := quick.Check(prop, qcheck.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
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
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram must read zero")
	}
}

// TestHistogramWindow: count and mean cover every value, percentiles
// only the most recent histogramWindow, and no more are kept.
func TestHistogramWindow(t *testing.T) {
	var h Histogram
	const n = 10000
	for i := 0; i < n; i++ {
		h.Add(float64(i))
	}
	if len(h.recent) != histogramWindow {
		t.Fatalf("kept %d values, want %d", len(h.recent), histogramWindow)
	}
	if h.N() != n || !almost(h.Mean(), (n-1)/2.0) {
		t.Fatalf("N = %d, mean = %v; want %d and %v", h.N(), h.Mean(), n, (n-1)/2.0)
	}
	if lo, hi := h.Percentile(0), h.Percentile(100); lo != n-histogramWindow || hi != n-1 {
		t.Fatalf("window spans [%v, %v], want [%d, %d]", lo, hi, n-histogramWindow, n-1)
	}
}

func TestHistogramSamplesCopy(t *testing.T) {
	var h Histogram
	h.Add(3)
	c := h.Clone()
	c.recent[0] = 99
	c.Add(5)
	if h.Percentile(50) != 3 || h.N() != 1 {
		t.Fatal("Clone must not share samples with its source")
	}
}
