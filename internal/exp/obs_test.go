package exp

import (
	"strings"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/obs"
)

// The observability plane must never perturb the simulation: for a fixed
// (spec, seed) the result is byte-identical with tracing off, on, and on
// with a pathologically small ring (which forces constant rotation).
func TestObsNeverPerturbsResults(t *testing.T) {
	s := NewSession()
	const n = 150
	for _, mode := range AllModes() {
		s.SetObs(nil)
		off := s.CPUIDNested(mode, n)
		s.SetObs(&obs.Options{})
		on := s.CPUIDNested(mode, n)
		if s.LastObs() == nil {
			t.Fatalf("%v: armed run captured no plane", mode)
		}
		s.SetObs(&obs.Options{RingCap: 4, DispatchSample: 16})
		small := s.CPUIDNested(mode, n)

		if on.PerOp != off.PerOp {
			t.Errorf("%v: tracing on changed per-op: %v != %v", mode, on.PerOp, off.PerOp)
		}
		if small.PerOp != off.PerOp {
			t.Errorf("%v: small-ring tracing changed per-op: %v != %v", mode, small.PerOp, off.PerOp)
		}
	}
}

// Disarming clears the captured plane, and an unarmed run captures none.
func TestObsDisarm(t *testing.T) {
	s := NewSession()
	s.SetObs(&obs.Options{})
	s.CPUIDNested(hv.ModeBaseline, 20)
	if s.LastObs() == nil {
		t.Fatal("armed run captured no plane")
	}
	s.SetObs(nil)
	if s.LastObs() != nil {
		t.Fatal("SetObs(nil) must clear the captured plane")
	}
	s.CPUIDNested(hv.ModeBaseline, 20)
	if s.LastObs() != nil {
		t.Fatal("unarmed run captured a plane")
	}
}

// Two identical armed runs serialize byte-identical artifacts: the
// Perfetto JSON timeline, the metrics CSV, and the span summary.
func TestObsArtifactsAreByteStable(t *testing.T) {
	s := NewSession()
	render := func() (trace, csv, sum string) {
		s.SetObs(&obs.Options{})
		s.NetLatency(hv.ModeSWSVt, 60)
		plane := s.LastObs()
		if plane == nil {
			t.Fatal("no plane captured")
		}
		var tb, cb, sb strings.Builder
		if err := plane.Tracer.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := plane.Metrics.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := plane.Tracer.WriteSummary(&sb, 20); err != nil {
			t.Fatal(err)
		}
		return tb.String(), cb.String(), sb.String()
	}
	t1, c1, s1 := render()
	t2, c2, s2 := render()
	if t1 != t2 {
		t.Error("trace JSON not byte-stable across identical runs")
	}
	if c1 != c2 {
		t.Error("metrics CSV not byte-stable across identical runs")
	}
	if s1 != s2 {
		t.Error("span summary not byte-stable across identical runs")
	}
	if !strings.Contains(t1, "hw-context-1") {
		t.Error("trace missing the sibling hardware-context track")
	}
	if !strings.Contains(c1, "swsvt.reflections,") {
		t.Error("metrics missing the reflection counter")
	}
}
