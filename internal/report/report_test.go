package report

import (
	"bytes"
	"strings"
	"testing"

	"svtsim/internal/exp"
)

func TestTable1Renders(t *testing.T) {
	rr := NewRenderer(exp.NewSession())
	var b bytes.Buffer
	rr.Table1(&b, 300)
	out := b.String()
	for _, want := range []string{"Table 1", "L2", "Switch L2<->L0", "L0 handler", "total", "10.40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3CountsRealSource(t *testing.T) {
	rr := NewRenderer(exp.NewSession())
	var b bytes.Buffer
	rr.Table3(&b, "../..")
	out := b.String()
	if !strings.Contains(out, "KVM analogue") {
		t.Fatal("table 3 rows missing")
	}
	// The KVM-analogue row must count thousands of lines from real source.
	if strings.Contains(out, "hypervisor, SVt core)          0") {
		t.Fatal("line counting found nothing")
	}
}

func TestTable4AndFigure6(t *testing.T) {
	rr := NewRenderer(exp.NewSession())
	var b bytes.Buffer
	rr.Table4(&b)
	if !strings.Contains(b.String(), "E5-2630v3") {
		t.Fatal("table 4 content")
	}
	b.Reset()
	rr.Figure6(&b, 150)
	out := b.String()
	for _, want := range []string{"L0", "SW SVt", "HW SVt", "1.23x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 6 missing %q", want)
		}
	}
}

func TestChannelsRenders(t *testing.T) {
	rr := NewRenderer(exp.NewSession())
	var b bytes.Buffer
	rr.Channels(&b, true)
	out := b.String()
	for _, want := range []string{"poll", "mwait", "mutex", "cross-numa"} {
		if !strings.Contains(out, want) {
			t.Fatalf("channels missing %q", want)
		}
	}
}

func TestProfilesRender(t *testing.T) {
	rr := NewRenderer(exp.NewSession())
	var b bytes.Buffer
	rr.Profiles(&b)
	if !strings.Contains(b.String(), "EPT_MISCONFIG") {
		t.Fatal("profiles must include EPT_MISCONFIG")
	}
}
