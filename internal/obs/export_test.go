package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"svtsim/internal/isa"
)

// traceDoc mirrors the Chrome trace-event JSON array format.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func exportTestTracer() *Tracer {
	tr := NewTracer(2, 16)
	lab := tr.Intern("L1.vcpu0")
	cpuid := uint64(isa.ExitCPUID)
	tr.Span(0, KindVMExit, 1, lab, 1000, 1600, cpuid, 0)
	tr.Span(1, KindReflect, 1, lab, 2000, 2500, cpuid, 0)
	tr.Instant(1, KindIRQ, LevelNone, 0, 2600, 0x20, 1)
	tr.Instant(tr.DeviceTrack(), KindVirtioKick, LevelNone, tr.Intern("l0-virtio-net"), 2700, 0, 3)
	return tr
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tr := exportTestTracer()
	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}

	// One process_name metadata record per track, named as laid out.
	names := map[int]string{}
	var spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				names[e.Pid] = e.Args["name"].(string)
			}
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if len(names) != len(tr.tracks) {
		t.Fatalf("got %d process_name records, want %d", len(names), len(tr.tracks))
	}
	for i, want := range tr.names {
		if names[i] != want {
			t.Errorf("track %d named %q, want %q", i, names[i], want)
		}
	}
	if spans != 2 || instants != 2 {
		t.Fatalf("spans=%d instants=%d", spans, instants)
	}
}

func TestWriteChromeTraceEventFields(t *testing.T) {
	tr := exportTestTracer()
	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var exit *traceEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Ph == "X" && doc.TraceEvents[i].Pid == 0 {
			exit = &doc.TraceEvents[i]
			break
		}
	}
	if exit == nil {
		t.Fatal("no span on track 0")
	}
	// ts/dur are microseconds: the span [1000ns, 1600ns) is 1 us + 0.6 us.
	if exit.Ts != 1.0 || exit.Dur != 0.6 {
		t.Fatalf("ts=%v dur=%v", exit.Ts, exit.Dur)
	}
	if exit.Cat != "vmexit" {
		t.Fatalf("cat = %q", exit.Cat)
	}
	if exit.Args["label"] != "L1.vcpu0" || exit.Args["level"] != 1.0 {
		t.Fatalf("args = %v", exit.Args)
	}
	if exit.Name != "CPUID" {
		t.Fatalf("name = %q", exit.Name)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := exportTestTracer().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := exportTestTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical tracers serialized differently")
	}
}

func TestWriteSummary(t *testing.T) {
	tr := exportTestTracer()
	var buf strings.Builder
	if err := tr.WriteSummary(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vmexit:CPUID") || !strings.Contains(out, "reflect:reflect CPUID") {
		t.Fatalf("summary missing rows:\n%s", out)
	}
	// Instants never contribute rows.
	if strings.Contains(out, "irq") || strings.Contains(out, "virtio") {
		t.Fatalf("summary includes instants:\n%s", out)
	}
	// topN truncates.
	buf.Reset()
	if err := tr.WriteSummary(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 { // header + 1 row
		t.Fatalf("topN=1 produced %d lines:\n%s", lines, buf.String())
	}
}
