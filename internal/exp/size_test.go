package exp

import (
	"math"
	"runtime"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/ports"
	"svtsim/internal/race"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
)

// warmDensityVM builds and runs density VM i (0 cpuid, 1 netrr, 2
// memcached) on port p in mode, uncontended.
func warmDensityVM(t *testing.T, p ports.Port, mode hv.Mode, i int) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	s := NewSession()
	s.SetPort(p)
	m, io, _ := buildDensityVM(s.config(mode), i, &sim.Ledger{})
	s.run(m)
	return m, io
}

// TestSizeMatchesCapture: the migration image size density and storm
// sweeps price from equals the encoded size of the real image, on every
// port, mode and density workload, with and without the I/O stack.
func TestSizeMatchesCapture(t *testing.T) {
	for _, n := range ports.Names() {
		p := ports.Get(n)
		for _, mode := range hv.AllModes() {
			for i, name := range []string{"cpuid", "netrr", "memcached"} {
				m, io := warmDensityVM(t, p, mode, i)
				if got, want := snapshot.Size(m, io), snapshot.Capture(m, io).Bytes(); got != want {
					t.Errorf("%s/%s/%s: Size %d, Capture bytes %d", p.Name(), mode, name, got, want)
				}
				if got, want := snapshot.Size(m, nil), snapshot.Capture(m, nil).Bytes(); got != want {
					t.Errorf("%s/%s/%s without I/O: Size %d, Capture bytes %d", p.Name(), mode, name, got, want)
				}
			}
		}
	}
}

// TestSizeAllocBudget: sizing a warmed netrr machine's image reads
// counts, not state, so it allocates little more than the section plan,
// where capturing the image allocates about 38 KB. The budget is 1/50 of
// the 144 KB a capture allocated before sections were counted first,
// the bound this test held Size to as a share of Capture.
func TestSizeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const sizeBudget = 2_880 // bytes; 2,592 measured on go1.24
	for _, n := range ports.Names() {
		p := ports.Get(n)
		m, io := warmDensityVM(t, p, hv.ModeSWSVt, 1)
		if got := allocBytes(func() { snapshot.Size(m, io) }); got > sizeBudget {
			t.Errorf("%s: Size allocated %d B, budget %d", p.Name(), got, sizeBudget)
		}
	}
}

// allocBytes measures the bytes one call of f allocates the way
// testing.AllocsPerRun counts allocations: TotalAlloc is process-wide,
// so it runs at GOMAXPROCS 1 after one warm-up call and keeps the least
// of 5 runs, which a goroutine left over from another test cannot
// inflate in every run.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
