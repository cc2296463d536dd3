package obs

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"svtsim/internal/stats"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("exits")
	c.Inc()
	c.Add(4)
	if r.Counter("exits") != c {
		t.Fatal("Counter must return the same instance per name")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}

	g := r.Gauge("occupancy")
	g.Set(3.5)
	if r.Gauge("occupancy") != g || g.Value() != 3.5 {
		t.Fatal("gauge identity or value wrong")
	}

	r.RegisterHistogram("lat", &stats.Histogram{})

	// A live external counter registered by pointer reads through.
	var live Counter
	r.RegisterCounter("fallbacks", &live)
	live.Inc()

	r.RegisterFunc("now", func() float64 { return 42 })

	names := r.Names()
	want := []string{"exits", "fallbacks", "lat", "now", "occupancy"}
	if !sort.StringsAreSorted(names) {
		t.Fatal("Names must be sorted")
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names = %v, want %v", names, want)
	}
}

func TestRegistryRowsExpandHistograms(t *testing.T) {
	r := NewRegistry()
	h := &stats.Histogram{}
	r.RegisterHistogram("lat", h)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	rows := r.Rows()
	byName := map[string]string{}
	for _, row := range rows {
		byName[row.Name] = row.Value
	}
	for _, k := range []string{"lat.count", "lat.mean", "lat.p50", "lat.p99"} {
		if _, ok := byName[k]; !ok {
			t.Fatalf("missing histogram row %s in %v", k, rows)
		}
	}
	if byName["lat.count"] != "100" {
		t.Fatalf("lat.count = %s", byName["lat.count"])
	}
}

func TestRegistryCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "metric,value\na,1\nb,2\n" {
		t.Fatalf("CSV = %q", buf.String())
	}
}

func TestRegistryJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("exits").Add(7)
	r.Gauge("load").Set(0.25)
	r.RegisterFunc("bad", func() float64 { return math.NaN() })
	r.RegisterFunc("worse", func() float64 { return math.Inf(1) })
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if got["exits"] != 7 || got["load"] != 0.25 {
		t.Fatalf("values = %v", got)
	}
	// Non-finite readings serialize as 0 so the document stays valid JSON.
	if got["bad"] != 0 || got["worse"] != 0 {
		t.Fatalf("non-finite values leaked: %v", got)
	}
}

func TestEmptyRegistryJSON(t *testing.T) {
	var buf strings.Builder
	if err := NewRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("invalid empty JSON %q: %v", buf.String(), err)
	}
}
