package svtsim

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeCPUIDLadder(t *testing.T) {
	s := NewSession()
	l0 := s.CPUIDNative(100)
	l2 := s.CPUIDNested(Baseline, 100)
	hw := s.CPUIDNested(HWSVt, 100)
	if !(l0.PerOp < hw.PerOp && hw.PerOp < l2.PerOp) {
		t.Fatalf("ladder violated: %v %v %v", l0.PerOp, hw.PerOp, l2.PerOp)
	}
}

func TestFacadeMachineConstruction(t *testing.T) {
	for _, mode := range AllModes() {
		cfg := DefaultConfig(mode)
		io := WireIO(&cfg)
		m := NewNestedMachine(cfg)
		if m == nil || io == nil {
			t.Fatalf("mode %v: construction failed", mode)
		}
	}
}

func TestFacadeCostModel(t *testing.T) {
	for _, mode := range AllModes() {
		if c := DefaultConfig(mode).Costs; c.ExitLeg() <= 0 || c.EntryLeg() <= 0 {
			t.Fatalf("mode %v: cost model legs must be positive", mode)
		}
	}
}

func TestReportsRender(t *testing.T) {
	s := NewSession()
	var b bytes.Buffer
	s.Table4(&b)
	if !strings.Contains(b.String(), "Table 4") {
		t.Fatal("table 4 render")
	}
	b.Reset()
	s.Table3(&b, ".")
	if !strings.Contains(b.String(), "KVM analogue") {
		t.Fatal("table 3 render")
	}
	b.Reset()
	s.Table1(&b, 200)
	out := b.String()
	for _, want := range []string{"Table 1", "L0 handler", "10.40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 render missing %q", want)
		}
	}
	b.Reset()
	s.Figure6(&b, 100)
	if !strings.Contains(b.String(), "HW SVt") {
		t.Fatal("figure 6 render")
	}
}

func TestChannelStudyFacade(t *testing.T) {
	s := NewSession()
	pts := s.ChannelStudy(50, []Time{0})
	if len(pts) != 9 { // 3 policies x 3 placements
		t.Fatalf("points = %d, want 9", len(pts))
	}
}
