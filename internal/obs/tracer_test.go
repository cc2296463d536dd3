package obs

import (
	"strings"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	// Every method must be callable on a nil receiver — that is the
	// entire disabled-path contract.
	tr.Span(0, KindVMExit, 1, 0, 0, 10, 0, 0)
	tr.Instant(0, KindIRQ, LevelNone, 0, 5, 0x20, 0)
	if tr.Contexts() != 0 || tr.Total() != 0 {
		t.Fatal("nil tracer reported nonzero shape")
	}
	if tr.Intern("x") != 0 {
		t.Fatal("nil tracer must intern to label 0 so cached labels stay inert")
	}
	if tr.Lookup(3) != "" || tr.Ring(0) != nil {
		t.Fatal("nil tracer lookups must be empty")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents":[]`) {
		t.Fatalf("nil tracer trace = %q", b.String())
	}
	b.Reset()
	if err := tr.WriteSummary(&b, 5); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("nil tracer summary empty")
	}
}

func TestTracerTrackLayout(t *testing.T) {
	tr := NewTracer(3, 16)
	if tr.Contexts() != 3 {
		t.Fatalf("Contexts() = %d", tr.Contexts())
	}
	if len(tr.tracks) != 5 { // 3 contexts + devices + engine
		t.Fatalf("%d tracks", len(tr.tracks))
	}
	if tr.DeviceTrack() != 3 || tr.EngineTrack() != 4 {
		t.Fatalf("device=%d engine=%d", tr.DeviceTrack(), tr.EngineTrack())
	}
	wantNames := []string{"hw-context-0", "hw-context-1", "hw-context-2", "devices", "engine"}
	for i, want := range wantNames {
		if got := tr.names[i]; got != want {
			t.Errorf("track %d named %q, want %q", i, got, want)
		}
	}
}

func TestTracerClampsTracksAndDurations(t *testing.T) {
	tr := NewTracer(1, 4)
	// Out-of-range tracks land on the nearest edge rather than panicking:
	// emission sites trust their wiring, the tracer stays safe anyway.
	tr.Instant(-3, KindIRQ, LevelNone, 0, 0, 1, 0)
	tr.Instant(99, KindIPI, LevelNone, 0, 0, 2, 0)
	if tr.Ring(0).n != 1 || tr.Ring(tr.EngineTrack()).n != 1 {
		t.Fatal("clamped events landed on the wrong tracks")
	}
	// A span whose end precedes its start records zero duration.
	tr.Span(0, KindVMExit, 1, 0, 100, 40, 0, 0)
	es := events(tr.Ring(0))
	if es[len(es)-1].Dur != 0 {
		t.Fatalf("negative duration not clamped: %+v", es[len(es)-1])
	}
}

func TestTracerInternRoundTrip(t *testing.T) {
	tr := NewTracer(1, 4)
	a := tr.Intern("L1.vcpu0")
	b := tr.Intern("L2")
	if a == b {
		t.Fatal("distinct strings share a label")
	}
	if tr.Intern("L1.vcpu0") != a {
		t.Fatal("re-interning must be stable")
	}
	if tr.Intern("") != 0 {
		t.Fatal("empty string must intern to 0")
	}
	if tr.Lookup(a) != "L1.vcpu0" || tr.Lookup(b) != "L2" {
		t.Fatal("lookup mismatch")
	}
	if tr.Lookup(Label(999)) != "" {
		t.Fatal("unknown label must resolve to empty")
	}
}

func TestTracerTotalSpansAllTracks(t *testing.T) {
	tr := NewTracer(2, 2)
	tr.Span(0, KindVMExit, 1, 0, 0, 5, 0, 0)
	tr.Instant(1, KindIRQ, LevelNone, 0, 1, 0, 0)
	tr.Instant(tr.DeviceTrack(), KindVirtioKick, LevelNone, 0, 2, 0, 0)
	// Rotate track 0 past capacity; Total keeps counting.
	tr.Span(0, KindWake, LevelNone, 0, 5, 6, 0, 0)
	tr.Span(0, KindWake, LevelNone, 0, 6, 7, 0, 0)
	if tr.Total() != 5 {
		t.Fatalf("Total() = %d, want 5", tr.Total())
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).ringCap() != DefaultRingCap {
		t.Fatal("zero RingCap must default")
	}
	if (Options{RingCap: 7}).ringCap() != 7 {
		t.Fatal("explicit RingCap ignored")
	}
}

func TestNewPlane(t *testing.T) {
	p := New(2, Options{RingCap: 8})
	if p.Tracer == nil || p.Metrics == nil {
		t.Fatal("plane incomplete")
	}
	if p.Tracer.Contexts() != 2 || len(p.Tracer.Ring(0).buf) != 8 {
		t.Fatal("options not applied")
	}
}

func TestKindStringAndSpanSet(t *testing.T) {
	for k := KindNone; k < NumKinds; k++ {
		if strings.Contains(k.String(), "?") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !KindVMExit.IsSpan() || !KindBlkIO.IsSpan() {
		t.Fatal("span kinds misclassified")
	}
	if KindIRQ.IsSpan() || KindDispatch.IsSpan() {
		t.Fatal("instant kinds misclassified")
	}
}
