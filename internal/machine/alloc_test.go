package machine

import (
	"runtime"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/ports"
	armport "svtsim/internal/ports/armlike"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/race"
)

var allocPorts = []ports.Port{x86port.Port(), armport.Port()}

func portConfig(p ports.Port, mode hv.Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.Port, cfg.Costs = p, p.Costs()
	return cfg
}

// runCounted runs n nested CPUIDs on a fresh machine and reports the
// mallocs of the Run call and the nested exits it took.
func runCounted(t *testing.T, cfg Config, n int) (mallocs, exits uint64) {
	t.Helper()
	m := NewNested(cfg)
	defer m.Shutdown()
	m.SetL2Workload(&cpuidLoop{n: n})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	if m.L0.DeadlockDetected {
		t.Fatal("simulation deadlocked")
	}
	for _, c := range m.L0.NestedProf.Count {
		exits += c
	}
	return after.Mallocs - before.Mallocs, exits
}

// The steady-state nested exit allocates nothing, on every port and in
// every mode. Two runs that differ only in length isolate the per-exit
// cost from the one-time warm-up (guest goroutines, map sizing, the
// composed EPT).
func TestNestedExitAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, p := range allocPorts {
		for _, mode := range hv.AllModes() {
			cfg := portConfig(p, mode)
			m1, e1 := runCounted(t, cfg, 1000)
			m2, e2 := runCounted(t, cfg, 2000)
			if e2 <= e1 {
				t.Fatalf("%s/%s: %d exits at n=2000, %d at n=1000", p.Name(), mode, e2, e1)
			}
			extra := float64(e2 - e1)
			per := (float64(m2) - float64(m1)) / extra
			t.Logf("%s/%s: %.4f allocs per extra exit (%d mallocs at n=1000, %d at n=2000)",
				p.Name(), mode, per, m1, m2)
			if per >= 0.01 {
				t.Errorf("%s/%s: %.3f allocs per nested exit, want < 0.01", p.Name(), mode, per)
			}
		}
	}
}

// Building a machine is per-cell set-up in every sweep. EPT tables held
// as extents make ept01, ept12 and the composed ept02 a few runs each,
// so a build takes ~9-15 KB, not the ~270 KB per-frame arrays took.
func TestNewNestedAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const budget = 32 << 10
	for _, p := range allocPorts {
		for _, mode := range hv.AllModes() {
			cfg := portConfig(p, mode)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m := NewNested(cfg)
			runtime.ReadMemStats(&after)
			m.Shutdown()
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s/%s: NewNested allocated %d bytes", p.Name(), mode, got)
			if got > budget {
				t.Errorf("%s/%s: NewNested allocated %d bytes, budget %d", p.Name(), mode, got, budget)
			}
		}
	}
}
