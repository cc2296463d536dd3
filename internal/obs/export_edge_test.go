package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"svtsim/internal/stats"
)

// TestEmptyRegistryExport pins the degenerate registry outputs: no rows,
// a header-only CSV, and a JSON object that still parses.
func TestEmptyRegistryExport(t *testing.T) {
	r := NewRegistry()
	if rows := r.Rows(); len(rows) != 0 {
		t.Fatalf("empty registry produced rows: %v", rows)
	}
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("empty registry lists names: %v", names)
	}

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != "metric,value\n" {
		t.Fatalf("empty CSV = %q", csv.String())
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("empty registry JSON invalid: %v\n%s", err, js.String())
	}
	if len(doc) != 0 {
		t.Fatalf("empty registry JSON has keys: %v", doc)
	}
}

// TestZeroSpanTraceExport covers a tracer that recorded no events at all
// and one that recorded only instants: the Chrome trace must stay valid
// JSON (metadata records only, no "X" events) and the summary must not
// fabricate span rows.
func TestZeroSpanTraceExport(t *testing.T) {
	for name, fill := range map[string]func(*Tracer){
		"no-events":     func(*Tracer) {},
		"instants-only": func(tr *Tracer) { tr.Instant(0, KindIRQ, LevelNone, 0, 100, 0x20, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewTracer(1, 8)
			fill(tr)
			var buf strings.Builder
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var doc traceDoc
			if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
				t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
			}
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" {
					t.Fatalf("span event in zero-span trace: %+v", e)
				}
			}

			buf.Reset()
			if err := tr.WriteSummary(&buf, 10); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(buf.String(), "\n"); lines != 1 {
				t.Fatalf("zero-span summary has %d lines, want header only:\n%s", lines, buf.String())
			}
		})
	}
}

// TestNilTracerExport keeps the obs-disabled path writing well-formed
// output rather than panicking.
func TestNilTracerExport(t *testing.T) {
	var tr *Tracer
	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer produced events: %v", doc.TraceEvents)
	}
	buf.Reset()
	if err := tr.WriteSummary(&buf, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil tracer summary = %q", buf.String())
	}
}

// TestOneBucketHistogramExport pins the histogram expansion when every
// sample has one value: count/mean/p50/p99 all reflect it, and the
// rendered numbers are valid JSON numbers.
func TestOneBucketHistogramExport(t *testing.T) {
	r := NewRegistry()
	h := &stats.Histogram{}
	r.RegisterHistogram("exit.latency", h)
	for i := 0; i < 5; i++ {
		h.Add(7)
	}
	rows := r.Rows()
	want := map[string]string{
		"exit.latency.count": "5",
		"exit.latency.mean":  "7",
		"exit.latency.p50":   "7",
		"exit.latency.p99":   "7",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows %v, want %d", len(rows), rows, len(want))
	}
	for _, row := range rows {
		if want[row.Name] != row.Value {
			t.Errorf("%s = %s, want %s", row.Name, row.Value, want[row.Name])
		}
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]float64
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("histogram JSON invalid: %v\n%s", err, js.String())
	}
	if doc["exit.latency.count"] != 5 || doc["exit.latency.p99"] != 7 {
		t.Fatalf("histogram JSON = %v", doc)
	}
}
