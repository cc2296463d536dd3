package exp

import (
	"reflect"
	"sync"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/obs"
	"svtsim/internal/swsvt"
)

// smallTopo is the density tests' host: one socket, two SMT cores — big
// enough for placement classes to emerge, small enough to sweep quickly.
var smallTopo = host.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 2}

func densitySession(t *testing.T, workers int) *Session {
	t.Helper()
	s := NewSession()
	if err := s.SetTopology(smallTopo); err != nil {
		t.Fatal(err)
	}
	s.SetParallelism(workers)
	return s
}

// TestConsolidationSmoke packs VMs onto the small host in every mode and
// checks the physics: contention never speeds a VM up, throughput is
// real, and the SW-SVt gang's placement class emerges from topology
// occupancy — SMT siblings while a core pair is free, degrading once the
// host is saturated.
func TestConsolidationSmoke(t *testing.T) {
	for _, mode := range AllModes() {
		s := densitySession(t, 1)
		for _, k := range []int{1, 3} {
			pt := s.Consolidation(mode, k)
			if len(pt.VMs) != k {
				t.Fatalf("%v k=%d: %d VM results", mode, k, len(pt.VMs))
			}
			for _, v := range pt.VMs {
				if v.Slowdown < 1 {
					t.Errorf("%v k=%d vm=%d: slowdown %.3f < 1", mode, k, v.VM, v.Slowdown)
				}
				if v.Throughput <= 0 {
					t.Errorf("%v k=%d vm=%d: throughput %.1f <= 0", mode, k, v.VM, v.Throughput)
				}
				if v.P99Us < v.P50Us {
					t.Errorf("%v k=%d vm=%d: p99 %.1f < p50 %.1f", mode, k, v.VM, v.P99Us, v.P50Us)
				}
			}
		}
		if mode == hv.ModeSWSVt {
			if place := s.densityFleet(mode, 1, nil, nil).assigns[0].Place; place != swsvt.PlaceSMT {
				t.Errorf("sw-svt first gang placed %v, want SMT siblings on the empty host", place)
			}
		}
	}
}

// TestDensitySweepParallelDeterminism pins the acceptance criterion: the
// sweep's full result structure is identical whether phase-1 VM runs
// execute serially or fan out on eight workers.
func TestDensitySweepParallelDeterminism(t *testing.T) {
	const kmax, slo = 3, 500.0
	serial := densitySession(t, 1).DensitySweep(AllModes(), kmax, slo)
	par := densitySession(t, 8).DensitySweep(AllModes(), kmax, slo)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("density sweep diverges across pool widths:\nserial:   %+v\nparallel: %+v",
			serial, par)
	}
}

// TestDensitySweepMaxDensity checks the SLO verdict wiring: an absurdly
// generous SLO admits every packing level, an impossible one admits none.
func TestDensitySweepMaxDensity(t *testing.T) {
	s := densitySession(t, 1)
	generous := s.DensitySweep([]hv.Mode{hv.ModeHWSVt}, 2, 1e9)
	if got := generous[0].MaxDensity; got != 2 {
		t.Errorf("generous SLO: max density %d, want 2", got)
	}
	impossible := s.DensitySweep([]hv.Mode{hv.ModeHWSVt}, 2, 1e-9)
	if got := impossible[0].MaxDensity; got != 0 {
		t.Errorf("impossible SLO: max density %d, want 0", got)
	}
}

// TestSessionConfigRace arms and reads session configuration concurrently
// with a running sweep. Under -race this pins the Session fix: the
// package-global era read the fault spec and obs options from pool
// workers with no synchronization at all.
func TestSessionConfigRace(t *testing.T) {
	s := NewSession()
	s.SetParallelism(4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s.SetObs(&obs.Options{})
			_ = s.LastObs()
			s.SetFaults(&fault.Spec{Seed: 3, Sites: []fault.SiteConfig{
				{Site: fault.SiteSVtWakeup, Rate: 0.05, Drop: true},
			}})
			s.SetFaults(nil)
			s.SetParallelism(4)
			_ = s.Parallelism()
		}
	}()
	cells := []FaultCell{
		{Mode: hv.ModeSWSVt, N: 50},
		{Mode: hv.ModeSWSVt, N: 50},
		{Mode: hv.ModeBaseline, N: 50},
		{Mode: hv.ModeHWSVt, N: 50},
	}
	res := s.FaultSweepGrid(cells)
	s.Consolidation(hv.ModeSWSVt, 3) // phase-1 memo reads race its resets
	close(done)
	wg.Wait()
	if len(res) != len(cells) {
		t.Fatalf("%d results for %d cells", len(res), len(cells))
	}
}
