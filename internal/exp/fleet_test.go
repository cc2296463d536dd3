package exp

import (
	"testing"

	"svtsim/internal/host"
	"svtsim/internal/sim"
)

// testTopo2x2x2 is the smallest topology with a real socket boundary.
func testTopo2x2x2() host.Topology {
	return host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
}

// smallFleetSpec keeps the shard-transparency tests fast: a 2x2x2 host,
// half a millisecond of 500ns ticks.
func smallFleetSpec(shards int) FleetReplaySpec {
	spec := DefaultFleetReplaySpec()
	spec.Topo = testTopo2x2x2()
	spec.Shards = shards
	spec.Dur = 500 * sim.Microsecond
	spec.Tick = 500 * sim.Nanosecond
	spec.CrossEvery = 16
	return spec
}

// TestFleetReplayShardTransparent: FleetReplaySpec.Shards is ignored —
// the host has one engine — so the macro's digest (per-context tick
// counts, IPI arrivals, per-core attribution, total events) is identical
// at every value of it on a topology with a socket boundary.
func TestFleetReplayShardTransparent(t *testing.T) {
	ref := FleetReplay(smallFleetSpec(1))
	if ref.Events == 0 || ref.IPIs == 0 {
		t.Fatalf("reference run too quiet: %+v", ref)
	}
	for _, shards := range []int{0, 2, 4} {
		if got := FleetReplay(smallFleetSpec(shards)); got != ref {
			t.Errorf("shards=%d: %s, want %s", shards, got.FleetReplayLine(), ref.FleetReplayLine())
		}
	}
}

// TestFleetReplayDefaultSpecShardTransparent runs one quick pass of the
// benchmark configuration (shortened) at every Shards value the benchmark
// under bench/ still sets, so the 2x8x2 host and its cross-socket IPI
// pattern are covered, not just the small topology.
func TestFleetReplayDefaultSpecShardTransparent(t *testing.T) {
	spec := DefaultFleetReplaySpec()
	spec.Dur = 200 * sim.Microsecond
	ref := FleetReplay(spec)
	if ref.Events == 0 || ref.IPIs == 0 {
		t.Fatalf("reference run too quiet: %+v", ref)
	}
	for _, shards := range []int{0, 4, 8} {
		s := spec
		s.Shards = shards
		if got := FleetReplay(s); got != ref {
			t.Errorf("shards=%d: %s, want %s", shards, got.FleetReplayLine(), ref.FleetReplayLine())
		}
	}
}

// TestFleetReplayPinned pins the macro's full line — per-context ticks
// and IPI arrivals, per-core attribution, total events — for the
// benchmark configuration and the small spec, so a change to how the
// host derives EventsByCore cannot move the digest unnoticed.
func TestFleetReplayPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec FleetReplaySpec
		want string
	}{
		{"default", DefaultFleetReplaySpec(),
			"shards=1 events=2327455 ticks=2291674 ipis=35781 elapsed=20.00ms digest=6f48aac21af129a6"},
		{"small", smallFleetSpec(1),
			"shards=1 events=8038 ticks=7574 ipis=464 elapsed=500.00us digest=79319419f1941518"},
	} {
		if got := FleetReplay(tc.spec).FleetReplayLine(); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
