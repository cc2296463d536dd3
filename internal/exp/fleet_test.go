package exp

import (
	"reflect"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/sim"
)

// testTopo2x2x2 is the smallest topology with a real socket boundary —
// the shape every shard-transparency test wants to cross.
func testTopo2x2x2() host.Topology {
	return host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
}

// migrateFaultSpec arms the migration fault sites plus IPI delays.
func migrateFaultSpec() *fault.Spec {
	return &fault.Spec{Seed: 13, Sites: []fault.SiteConfig{
		{Site: fault.SiteMigrateTransfer, Rate: 0.4, Drop: true},
		{Site: fault.SiteIPI, Rate: 0.2, Delay: 300},
	}}
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

// TestFleetReplayShardTransparent: the macro's digest — per-context
// tick counts, IPI arrivals, per-core attribution, total events — is
// identical at every shard count.
func TestFleetReplayShardTransparent(t *testing.T) {
	ref := FleetReplay(smallFleetSpec(1))
	if ref.Events == 0 || ref.IPIs == 0 {
		t.Fatalf("reference run too quiet: %+v", ref)
	}
	for _, shards := range []int{2, 4} {
		got := FleetReplay(smallFleetSpec(shards))
		if got.Shards != shards {
			t.Errorf("Shards = %d, want %d", got.Shards, shards)
		}
		got.Shards = ref.Shards
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d diverged from single heap:\n got %s\nwant %s",
				shards, got.FleetReplayLine(), ref.FleetReplayLine())
		}
	}
}

// TestFleetReplayDefaultSpecShardTransparent runs one quick pass of the
// benchmark configuration (shortened) so the 2x8x2 shard map and its
// cross-shard IPI pattern are covered, not just the small topology.
func TestFleetReplayDefaultSpecShardTransparent(t *testing.T) {
	spec := DefaultFleetReplaySpec()
	spec.Dur = 200 * sim.Microsecond
	ref := FleetReplay(spec)
	for _, shards := range []int{4, 8} {
		s := spec
		s.Shards = shards
		got := FleetReplay(s)
		if got.Digest != ref.Digest || got.Events != ref.Events {
			t.Errorf("shards=%d: %s, single heap %s", shards, got.FleetReplayLine(), ref.FleetReplayLine())
		}
	}
}

// TestDensitySweepShardTransparent: the full density sweep — admission,
// COW-forked phase-1 cache, contention replay, IPI tallies — is
// byte-identical with the host engine sharded.
func TestDensitySweepShardTransparent(t *testing.T) {
	run := func(shards int) []DensityResult {
		s := NewSession()
		if err := s.SetTopology(testTopo2x2x2()); err != nil {
			t.Fatal(err)
		}
		s.SetShards(shards)
		return s.DensitySweep([]hv.Mode{hv.ModeSWSVt, hv.ModeBaseline}, 3, 500)
	}
	ref := run(1)
	for _, pt := range ref[0].Points {
		if pt.Events == 0 {
			t.Fatalf("k=%d replay dispatched no events", pt.K)
		}
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d density sweep diverged from single heap", shards)
		}
	}
}

// TestStormTableShardTransparent: migration storms — gang moves,
// forced rollbacks, downtime — render byte-identical StatsLines with
// the host engine sharded.
func TestStormTableShardTransparent(t *testing.T) {
	run := func(shards int) []string {
		s := NewSession()
		if err := s.SetTopology(testTopo2x2x2()); err != nil {
			t.Fatal(err)
		}
		s.SetShards(shards)
		rs := s.StormTable(hv.AllModes(), 4, 8, 42)
		lines := make([]string, len(rs))
		for i, r := range rs {
			lines[i] = r.StatsLine()
		}
		return lines
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d storm table diverged:\n got %v\nwant %v", shards, got, ref)
		}
	}
}

// TestStormShardTransparentWithFaults: with a seeded fault spec armed
// the sharded host must fall back to the exact serial merge, keeping
// every RNG consult in single-heap order — the storm line, including
// fault-driven rollbacks, stays byte-identical.
func TestStormShardTransparentWithFaults(t *testing.T) {
	run := func(shards int) string {
		s := NewSession()
		if err := s.SetTopology(testTopo2x2x2()); err != nil {
			t.Fatal(err)
		}
		s.SetShards(shards)
		s.SetFaults(migrateFaultSpec())
		return s.MigrationStorm(hv.ModeSWSVt, 4, 8, 7).StatsLine()
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != ref {
			t.Errorf("shards=%d fault-armed storm diverged:\n got %s\nwant %s", shards, got, ref)
		}
	}
}
