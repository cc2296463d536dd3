package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"svtsim/internal/stats"
)

// Counter is a monotonically increasing tally. It is a plain struct so
// components embed one as a field and bump it with no indirection and no
// nil check — the cheapest possible instrument — while the registry
// holds a pointer to the live value for export.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a last-value instrument.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value reports the last set value.
func (g *Gauge) Value() float64 { return g.v }

type instrument struct {
	c *Counter
	g *Gauge
	h *stats.Histogram
	f func() float64
}

// Registry is a named-instrument registry: counters, gauges,
// stats-backed histograms, and function-backed readings (for components
// that already keep their own tallies). Export order is always sorted
// by name, so two identical runs dump byte-identical metrics.
type Registry struct {
	byName map[string]instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]instrument)}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if in, ok := r.byName[name]; ok && in.c != nil {
		return in.c
	}
	c := &Counter{}
	r.byName[name] = instrument{c: c}
	return c
}

// RegisterCounter attaches an existing live counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.byName[name] = instrument{c: c}
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if in, ok := r.byName[name]; ok && in.g != nil {
		return in.g
	}
	g := &Gauge{}
	r.byName[name] = instrument{g: g}
	return g
}

// RegisterHistogram attaches a histogram under name.
func (r *Registry) RegisterHistogram(name string, h *stats.Histogram) {
	r.byName[name] = instrument{h: h}
}

// RegisterFunc attaches a reading function under name; it is sampled at
// export time.
func (r *Registry) RegisterFunc(name string, f func() float64) {
	r.byName[name] = instrument{f: f}
}

// Names lists the registered instrument names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Row is one exported metric: a name and its deterministically
// formatted value (a valid JSON number).
type Row struct {
	Name  string
	Value string
}

func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Rows flattens the registry into sorted rows. Histograms expand into
// .count/.mean/.p50/.p99 rows.
func (r *Registry) Rows() []Row {
	var rows []Row
	for _, name := range r.Names() {
		in := r.byName[name]
		switch {
		case in.c != nil:
			rows = append(rows, Row{name, strconv.FormatUint(in.c.Value(), 10)})
		case in.g != nil:
			rows = append(rows, Row{name, formatFloat(in.g.Value())})
		case in.f != nil:
			rows = append(rows, Row{name, formatFloat(in.f())})
		case in.h != nil:
			rows = append(rows,
				Row{name + ".count", strconv.Itoa(in.h.N())},
				Row{name + ".mean", formatFloat(in.h.Mean())},
				Row{name + ".p50", formatFloat(in.h.Percentile(50))},
				Row{name + ".p99", formatFloat(in.h.Percentile(99))})
		}
	}
	return rows
}

// WriteCSV dumps the registry as "name,value" lines with a header.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric,value\n"); err != nil {
		return err
	}
	for _, row := range r.Rows() {
		if _, err := fmt.Fprintf(w, "%s,%s\n", row.Name, row.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON dumps the registry as a flat JSON object, keys sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	rows := r.Rows()
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, row := range rows {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n  %q: %s", sep, row.Name, row.Value); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
