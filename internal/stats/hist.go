package stats

// histogramWindow is how many of the most recent values a Histogram
// keeps for its percentiles. It bounds a long-lived histogram's memory:
// svtsimd observes every request it serves into one.
const histogramWindow = 1024

// Histogram summarises a stream of values: the lifetime count and mean,
// and exact percentiles over the most recent histogramWindow values. The
// zero value is ready to use.
type Histogram struct {
	n      int
	sum    float64
	recent []float64 // grows by append up to histogramWindow, then circular
	next   int       // the slot the next value overwrites once recent is full
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if len(h.recent) < histogramWindow {
		h.recent = append(h.recent, v)
		return
	}
	h.recent[h.next] = v
	h.next = (h.next + 1) % histogramWindow
}

// N reports how many values were ever recorded.
func (h *Histogram) N() int { return h.n }

// Mean reports the mean of every recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile reports an exact percentile over the most recent values.
func (h *Histogram) Percentile(p float64) float64 { return Percentile(h.recent, p) }

// Clone returns a copy that shares no storage with h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.recent = append([]float64(nil), h.recent...)
	return &c
}
