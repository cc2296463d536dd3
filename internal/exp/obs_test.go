package exp

import (
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
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
		s.SetObs(&obs.Options{RingCap: 4})
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

// TraceNestedCPUID reads L0's exits back from a plane armed on its own
// machine. On every port the listing speaks the port's exit vocabulary
// (armlike: TRAP_ERET, never an x86 spelling), repeats byte for byte,
// holds at most ring entries in start-time order — the newest ring of
// the full listing — and leaves the session's obs setting and LastObs
// alone.
func TestTraceNestedCPUIDPortVocabulary(t *testing.T) {
	const n, ring = 40, 8
	for _, name := range []string{"armlike", "x86"} {
		p, err := ports.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		s.SetPort(p)
		opts := &obs.Options{RingCap: 5}
		s.SetObs(opts)
		s.CPUIDNested(hv.ModeBaseline, 5)
		plane := s.LastObs()

		var sawERET bool
		for _, mode := range []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt} {
			got := s.TraceNestedCPUID(mode, n, ring)
			again := s.TraceNestedCPUID(mode, n, ring)
			full := s.TraceNestedCPUID(mode, n, 1<<12)
			if !reflect.DeepEqual(got, again) {
				t.Errorf("%s/%v: two runs differ", name, mode)
			}
			if len(got) != ring || len(full) < n {
				t.Fatalf("%s/%v: %d entries of %d, want %d of at least %d", name, mode, len(got), len(full), ring, n)
			}
			if !reflect.DeepEqual(got, full[len(full)-ring:]) {
				t.Errorf("%s/%v: ring %d is not the newest of the full listing", name, mode, ring)
			}
			var nested, direct bool
			for i, e := range full {
				if i > 0 && e.At < full[i-1].At {
					t.Fatalf("%s/%v: entry %d starts at %v, before %v", name, mode, i, e.At, full[i-1].At)
				}
				line, lvl := e.String(), "direct"
				if e.Nested {
					lvl = "nested"
				}
				if !strings.Contains(line, e.Name) || !strings.Contains(line, lvl) || !strings.Contains(line, e.VCPU) {
					t.Fatalf("%s/%v: %q does not show %s %s %s", name, mode, line, e.VCPU, lvl, e.Name)
				}
				for r := isa.ExitReason(0); r < isa.NumExitReasons; r++ {
					if x86 := r.String(); p.ExitName(r) == e.Name && x86 != e.Name && strings.Contains(line, x86) {
						t.Fatalf("%s/%v: %q uses the x86 spelling %s", name, mode, line, x86)
					}
				}
				sawERET = sawERET || strings.Contains(line, "TRAP_ERET")
				nested = nested || e.Nested
				direct = direct || !e.Nested
			}
			if !nested || !direct {
				t.Errorf("%s/%v: nested=%v direct=%v, want both", name, mode, nested, direct)
			}
		}
		if name == "armlike" && !sawERET {
			t.Error("armlike: no TRAP_ERET in the exit listing")
		}
		if s.LastObs() != plane || s.obsOpts != opts || opts.RingCap != 5 {
			t.Errorf("%s: TraceNestedCPUID touched the session's obs plane or setting", name)
		}
	}
}
