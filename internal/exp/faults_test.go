package exp

import (
	"strconv"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// TestFaultSweepLostWakeupsAndIPIs is the acceptance scenario: lost mwait
// wakeups at 30% and dropped IPIs at 5% injected into the SW-SVt channel.
// The run must complete — no hang — with the watchdog absorbing the lost
// wakeups and virtual time advancing throughout.
func TestFaultSweepLostWakeupsAndIPIs(t *testing.T) {
	s := NewSession()
	spec := &fault.Spec{
		Seed: 11,
		Sites: []fault.SiteConfig{
			{Site: fault.SiteSVtWakeup, Rate: 0.30, Drop: true},
			{Site: fault.SiteIPI, Rate: 0.05, Drop: true},
		},
	}
	r := s.FaultSweep(hv.ModeSWSVt, spec, 400)
	t.Logf("%+v", r)
	if !r.Completed {
		t.Fatal("fault sweep did not complete")
	}
	if r.WatchdogFires == 0 {
		t.Fatal("watchdog never fired despite 30% lost wakeups")
	}
	if r.Reflections == 0 {
		t.Fatal("no reflections happened")
	}
	if r.PerOp <= 0 {
		t.Fatal("virtual time did not advance")
	}
	// The healthy run of the same workload finishes in ~3.5ms; the faulty
	// run must cost more (watchdog waits) but still terminate promptly.
	healthy := s.FaultSweep(hv.ModeSWSVt, nil, 400)
	if r.PerOp <= healthy.PerOp {
		t.Fatalf("faulty run (%v/op) not slower than healthy run (%v/op)", r.PerOp, healthy.PerOp)
	}
}

// TestFaultSweepBreakerTripsAndRecovers drives a deterministic burst of
// lost wakeups long enough to exhaust the watchdog repeatedly: the
// channel breaker must trip, route reflections to the baseline
// trap/resume path while open, and re-arm once the burst ends.
func TestFaultSweepBreakerTripsAndRecovers(t *testing.T) {
	s := NewSession()
	spec := &fault.Spec{
		Seed: 1,
		Sites: []fault.SiteConfig{
			// Consults 51..70 all drop: with 3 watchdog retries each reflection
			// burns 4 consults, so ~5 consecutive reflections fail — enough
			// to trip the breaker (threshold 3) and fail one or two
			// half-open probes before the burst ends and recovery succeeds.
			{Site: fault.SiteSVtWakeup, Every: 1, After: 50, Limit: 20, Drop: true},
		},
	}
	r := s.FaultSweep(hv.ModeSWSVt, spec, 400)
	t.Logf("%+v", r)
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if r.Fallbacks == 0 {
		t.Fatal("no reflection fell back despite exhausted watchdog")
	}
	if r.BreakerTrips == 0 {
		t.Fatal("breaker never tripped on consecutive watchdog exhaustions")
	}
	if r.BreakerRecoveries == 0 {
		t.Fatal("breaker never recovered after the fault burst ended")
	}
	if r.FallbackReflections == 0 {
		t.Fatal("open breaker never short-circuited a reflection to trap/resume")
	}
	// The hypervisor's fallback metric sums both channel counters.
	cfg := s.config(hv.ModeSWSVt)
	cfg.Faults = spec
	cfg.Obs = &obs.Options{}
	m := machine.NewNested(cfg)
	m.SetL2Workload(&cpuidLoop{n: 400})
	s.run(m)
	var got string
	for _, row := range m.Obs.Metrics.Rows() {
		if row.Name == "hv.l0.sw_fallbacks" {
			got = row.Value
		}
	}
	if want := strconv.FormatUint(r.Fallbacks+r.FallbackReflections, 10); got != want {
		t.Fatalf("hv.l0.sw_fallbacks = %q, channel counted %d+%d",
			got, r.Fallbacks, r.FallbackReflections)
	}
	// After recovery the fast path must carry the rest of the run: most
	// of the 400 iterations reflect over the channel.
	if r.Reflections < 300 {
		t.Fatalf("only %d reflections after recovery, fast path did not re-arm", r.Reflections)
	}
}

// TestFaultSweepDeterminism pins the reproducibility contract: two runs
// with the identical spec (same fault seed) produce byte-identical stats.
func TestFaultSweepDeterminism(t *testing.T) {
	s := NewSession()
	mk := func() *fault.Spec {
		return &fault.Spec{
			Seed: 99,
			Sites: []fault.SiteConfig{
				{Site: fault.SiteSVtWakeup, Rate: 0.25, Drop: true},
				{Site: fault.SiteIPI, Rate: 0.10, Drop: true},
				{Site: fault.SiteRingPop, Rate: 0.05, Drop: true},
			},
		}
	}
	a := s.FaultSweep(hv.ModeSWSVt, mk(), 300)
	b := s.FaultSweep(hv.ModeSWSVt, mk(), 300)
	if a != b {
		t.Fatalf("same fault seed diverged:\n  %+v\n  %+v", a, b)
	}
	// A different seed must (for this config) actually change something,
	// or the determinism check above proves nothing.
	c := mk()
	c.Seed = 100
	d := s.FaultSweep(hv.ModeSWSVt, c, 300)
	if d == a {
		t.Fatal("changing the fault seed changed nothing; injection looks seed-independent")
	}
}

// TestFaultSweepDisabledMatchesBaseline: with no fault spec the sweep
// harness must reproduce the plain experiment bit-for-bit.
func TestFaultSweepDisabledMatchesBaseline(t *testing.T) {
	s := NewSession()
	for _, mode := range []hv.Mode{hv.ModeSWSVt, hv.ModeBaseline} {
		r := s.FaultSweep(mode, nil, 200)
		plain := s.CPUIDNested(mode, 200)
		if r.PerOp != plain.PerOp {
			t.Fatalf("%v: fault harness perturbed a healthy run: %v != %v", mode, r.PerOp, plain.PerOp)
		}
		if r.WatchdogFires != 0 || r.Fallbacks != 0 {
			t.Fatalf("%v: healthy run shows fault activity: %+v", mode, r)
		}
	}
}

// TestFaultSweepDelayedIRQs: delayed (not dropped) host IRQ delivery must
// slow the I/O path but never wedge it.
func TestFaultSweepDelayedIRQs(t *testing.T) {
	s := NewSession()
	spec := &fault.Spec{
		Seed: 5,
		Sites: []fault.SiteConfig{
			{Site: fault.SiteIRQ, Rate: 0.5, Delay: 20 * sim.Microsecond, Jitter: 10 * sim.Microsecond},
		},
	}
	s.SetFaults(spec)
	r := s.DiskLatency(hv.ModeSWSVt, false, 50)
	s.SetFaults(nil)
	h := s.DiskLatency(hv.ModeSWSVt, false, 50)
	if r.MeanUs <= h.MeanUs {
		t.Fatalf("delayed IRQs did not slow disk reads: %0.1fus <= %0.1fus", r.MeanUs, h.MeanUs)
	}
}

// TestFaultSweepGridParallelDeterminism: the grid harness must produce
// identical results whether cells run serially or fanned out —
// each cell owns its machine and seeded fault plane, and results are
// ordered by cell index.
func TestFaultSweepGridParallelDeterminism(t *testing.T) {
	mkCells := func() []FaultCell {
		var cells []FaultCell
		for _, rate := range []float64{0, 0.05, 0.30} {
			var spec *fault.Spec
			if rate > 0 {
				spec = &fault.Spec{
					Seed: 42,
					Sites: []fault.SiteConfig{
						{Site: fault.SiteSVtWakeup, Rate: rate, Drop: true},
						{Site: fault.SiteIPI, Rate: rate, Drop: true},
					},
				}
			}
			cells = append(cells, FaultCell{Mode: hv.ModeSWSVt, Spec: spec, N: 200})
		}
		return cells
	}
	serial := widthSession(1).FaultSweepGrid(mkCells())
	par := widthSession(8).FaultSweepGrid(mkCells())
	if len(serial) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("cell %d diverged:\nserial:   %+v\nparallel: %+v",
				i, serial[i], par[i])
		}
	}
}

// TestSWSVtFirstReflectionFallsBack: the first four wakeups are lost, so
// the very first reflection exhausts the watchdog and falls back to
// trap/resume before the SVt-thread has ever run. The main L1 instance
// then services L2's device exit through the device map the SVt-thread
// wires on its first run; the fallback must boot the thread so that map
// is wired, on both ports, for the network and the disk device alike.
func TestSWSVtFirstReflectionFallsBack(t *testing.T) {
	spec, err := fault.ParseSpec("swsvt/wakeup:every=1,limit=4,drop", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x86", "armlike"} {
		p, err := ports.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		s.SetPort(p)
		s.SetFaults(spec)
		for _, w := range []struct {
			name string
			run  func() IOResult
		}{
			{"netrr", func() IOResult { return s.NetLatency(hv.ModeSWSVt, 50) }},
			{"diskrd", func() IOResult { return s.DiskLatency(hv.ModeSWSVt, false, 50) }},
		} {
			t.Run(name+"/"+w.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("run panicked: %v", r)
					}
				}()
				if r := w.run(); r.MeanUs <= 0 {
					t.Fatalf("mean latency %vus, want > 0", r.MeanUs)
				}
			})
		}
	}
}

// TestSWSVtIOUnderHeavyWakeupLoss: with 30% of the SVt-thread's wakeups
// lost, reflections keep falling back to trap/resume mid-run. L1's main
// vCPU then services L2's device exits and drives the drivers the
// SVt-thread wired; they must run on it, not on the parked thread. Every
// I/O workload completes on both ports, slower than its healthy run.
func TestSWSVtIOUnderHeavyWakeupLoss(t *testing.T) {
	spec, err := fault.ParseSpec("swsvt/wakeup:rate=0.3,drop", 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ports.Names() {
		healthy, faulty := NewSession(), NewSession()
		healthy.SetPort(ports.Get(name))
		faulty.SetPort(ports.Get(name))
		faulty.SetFaults(spec)
		for _, w := range []struct {
			name string
			run  func(s *Session) float64 // mean latency, us
		}{
			{"netrr", func(s *Session) float64 { return s.NetLatency(hv.ModeSWSVt, 150).MeanUs }},
			{"diskrd", func(s *Session) float64 { return s.DiskLatency(hv.ModeSWSVt, false, 150).MeanUs }},
			{"diskwr", func(s *Session) float64 { return s.DiskLatency(hv.ModeSWSVt, true, 150).MeanUs }},
			{"memcached", func(s *Session) float64 {
				return s.Memcached(hv.ModeSWSVt, 10000, 50*sim.Millisecond).AvgUs
			}},
		} {
			t.Run(name+"/"+w.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("run panicked: %v", r)
					}
				}()
				if got, base := w.run(faulty), w.run(healthy); !(got > base && base > 0) {
					t.Fatalf("mean latency %vus under wakeup loss, %vus healthy; want slower", got, base)
				}
			})
		}
	}
}
