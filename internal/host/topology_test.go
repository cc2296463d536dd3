package host

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"svtsim/internal/swsvt"
	"svtsim/internal/uerr"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"2x8x2", Topology{2, 8, 2}, true},
		{"1x4x2", Topology{1, 4, 2}, true},
		{"4x2", Topology{1, 4, 2}, true},
		{"2x8", Topology{1, 2, 8}, false}, // 8 threads/core rejected
		{"0x8x2", Topology{}, false},
		{"2x8x2x1", Topology{}, false},
		{"potato", Topology{}, false},
		{"", Topology{}, false},
	}
	for _, c := range cases {
		got, err := ParseTopology(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseTopology(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseTopology(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestParseTopologyMalformed checks every rejection is a structured,
// user-facing *uerr.E (these now surface as svtsimd HTTP 400 bodies)
// whose reason names the actual problem, not a strconv internals dump.
func TestParseTopologyMalformed(t *testing.T) {
	cases := []struct {
		in     string
		reason string // substring the reason must carry
		hint   string // substring the hint must carry
	}{
		{"", "is not a number", "2x8x2"},
		{"potato", `"potato" is not a number`, "2x8x2"},
		{"2x8xtwo", `"two" is not a number`, "2x8x2"},
		{"8", "1 fields", "2x8x2"},
		{"2x8x2x1", "4 fields", "2x8x2"},
		{"0x8x2", "must be >= 1", "2x8x2"},
		{"2x0x2", "must be >= 1", "2x8x2"},
		{"2x8x-1", "must be >= 1", "2x8x2"},
		{"2x8x3", "3 SMT contexts per core", "2-way SMT"},
		{"1x1x1", "1 hardware context", "two hardware contexts"},
		{"64x64x2", "8192 hardware contexts exceeds the 4096 cap", "shrink"},
		{"4294967296x4294967296x1", "more than 4096 hardware contexts", "shrink"},
		{"2x9223372036854775807x2", "more than 4096 hardware contexts", "shrink"},
	}
	for _, c := range cases {
		_, err := ParseTopology(c.in)
		if err == nil {
			t.Errorf("ParseTopology(%q): expected error", c.in)
			continue
		}
		var ue *uerr.E
		if !errors.As(err, &ue) {
			t.Errorf("ParseTopology(%q): error %v is not a *uerr.E", c.in, err)
			continue
		}
		if ue.Field != "topology" {
			t.Errorf("ParseTopology(%q): field = %q, want topology", c.in, ue.Field)
		}
		if !strings.Contains(ue.Reason, c.reason) {
			t.Errorf("ParseTopology(%q): reason %q does not contain %q", c.in, ue.Reason, c.reason)
		}
		if !strings.Contains(ue.Hint, c.hint) {
			t.Errorf("ParseTopology(%q): hint %q does not contain %q", c.in, ue.Hint, c.hint)
		}
	}
}

// TestTopologyGolden2x8x2 pins the paper-testbed topology's full
// context map: 32 contexts, socket-major, siblings adjacent.
func TestTopologyGolden2x8x2(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2}
	if got, want := topo.Contexts(), 32; got != want {
		t.Fatalf("Contexts() = %d, want %d", got, want)
	}
	if got, want := topo.Cores(), 16; got != want {
		t.Fatalf("Cores() = %d, want %d", got, want)
	}
	d := describe(topo)
	for _, line := range []string{
		"host 2x8x2: 2 sockets, 16 cores, 32 contexts",
		"ctx  0 = socket 0 core 0 thread 0",
		"ctx  1 = socket 0 core 0 thread 1",
		"ctx 15 = socket 0 core 7 thread 1",
		"ctx 16 = socket 1 core 8 thread 0",
		"ctx 31 = socket 1 core 15 thread 1",
	} {
		if !strings.Contains(d, line) {
			t.Errorf("describe() missing %q:\n%s", line, d)
		}
	}
	// Distance classes.
	if got := topo.DistanceOf(0, 0); got != DistSelf {
		t.Errorf("DistanceOf(0,0) = %v, want self", got)
	}
	if got := topo.DistanceOf(0, 1); got != DistSMT {
		t.Errorf("DistanceOf(0,1) = %v, want smt", got)
	}
	if got := topo.DistanceOf(0, 2); got != DistCore {
		t.Errorf("DistanceOf(0,2) = %v, want cross-core", got)
	}
	if got := topo.DistanceOf(0, 16); got != DistNUMA {
		t.Errorf("DistanceOf(0,16) = %v, want cross-numa", got)
	}
	if got := topo.Sibling(6); got != 7 {
		t.Errorf("Sibling(6) = %d, want 7", got)
	}
	if got := topo.Sibling(7); got != 6 {
		t.Errorf("Sibling(7) = %d, want 6", got)
	}
}

// TestTopologyGolden1x4x2 pins the small single-socket shape used by CI
// smokes and the differential harness.
func TestTopologyGolden1x4x2(t *testing.T) {
	topo := Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2}
	if got, want := topo.Contexts(), 8; got != want {
		t.Fatalf("Contexts() = %d, want %d", got, want)
	}
	d := describe(topo)
	want := `host 1x4x2: 1 sockets, 4 cores, 8 contexts
  ctx  0 = socket 0 core 0 thread 0
  ctx  1 = socket 0 core 0 thread 1
  ctx  2 = socket 0 core 1 thread 0
  ctx  3 = socket 0 core 1 thread 1
  ctx  4 = socket 0 core 2 thread 0
  ctx  5 = socket 0 core 2 thread 1
  ctx  6 = socket 0 core 3 thread 0
  ctx  7 = socket 0 core 3 thread 1
`
	if d != want {
		t.Errorf("describe():\n%s\nwant:\n%s", d, want)
	}
	// One socket: nothing is ever cross-NUMA.
	for a := CtxID(0); int(a) < topo.Contexts(); a++ {
		for b := CtxID(0); int(b) < topo.Contexts(); b++ {
			if topo.DistanceOf(a, b) == DistNUMA {
				t.Fatalf("DistanceOf(%d,%d) = cross-numa on a 1-socket host", a, b)
			}
		}
	}
}

// TestPlacementEmergesFromTopology: the same admission policy yields
// sibling-SMT placement when a core is free, cross-core when SMT is
// absent, and cross-NUMA when each socket has one core.
func TestPlacementEmergesFromTopology(t *testing.T) {
	place := func(topo Topology) swsvt.Placement {
		h, err := New(topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h.Sched.Admit(0, 2).Place
	}
	if got := place(Topology{1, 4, 2}); got != swsvt.PlaceSMT {
		t.Errorf("1x4x2 gang placement = %v, want smt", got)
	}
	if got := place(Topology{1, 4, 1}); got != swsvt.PlaceCrossCore {
		t.Errorf("1x4x1 gang placement = %v, want cross-core", got)
	}
	if got := place(Topology{2, 1, 1}); got != swsvt.PlaceCrossNUMA {
		t.Errorf("2x1x1 gang placement = %v, want cross-numa", got)
	}
}

// TestAdmissionFillsIdleCoresFirst: gangs take whole idle cores until
// none remain, then degrade to cross-core pairs, then share.
func TestAdmissionFillsIdleCoresFirst(t *testing.T) {
	h, err := New(Topology{1, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a0 := h.Sched.Admit(0, 2)
	a1 := h.Sched.Admit(1, 2)
	a2 := h.Sched.Admit(2, 2)
	if a0.Place != swsvt.PlaceSMT || a1.Place != swsvt.PlaceSMT {
		t.Fatalf("first two gangs: %v / %v, want smt/smt", a0.Place, a1.Place)
	}
	if a0.Ctxs[0] == a1.Ctxs[0] {
		t.Fatalf("both gangs on one core: %v vs %v", a0, a1)
	}
	// Host saturated: third gang shares the least-loaded sibling pair.
	if a2.Place != swsvt.PlaceSMT {
		t.Fatalf("saturated gang placement = %v, want smt sharing", a2.Place)
	}
	if got := h.Sched.load[a2.Ctxs[0]]; got != 2 {
		t.Fatalf("shared context load = %d, want 2", got)
	}
}

// describe renders a topology one context per line, for the golden
// context maps above.
func describe(t Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host %s: %d sockets, %d cores, %d contexts\n",
		t, t.Sockets, t.Cores(), t.Contexts())
	for c := CtxID(0); int(c) < t.Contexts(); c++ {
		fmt.Fprintf(&b, "  ctx %2d = socket %d core %d thread %d\n",
			int(c), t.SocketOf(c), t.CoreOf(c), t.ThreadOf(c))
	}
	return b.String()
}
