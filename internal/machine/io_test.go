package machine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
	"svtsim/internal/stats"
	"svtsim/internal/workload"
)

// runNetRR runs netperf TCP_RR on the full nested stack; then, when
// set, the L2 body calls after.
func runNetRR(mode hv.Mode, n int, after func()) (*workload.NetRR, *Machine) {
	cfg := DefaultConfig(mode)
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	// External netperf peer: echoes 1-byte responses.
	io.NIC.Peer = &netsim.EchoPeer{
		Eng:         m.Eng,
		Back:        io.LinkIn,
		Dst:         io.NIC,
		ServiceTime: 5 * sim.Microsecond,
		RespSize:    1,
	}
	w := &workload.NetRR{N: n, ReqSize: 1, TCPModel: true, SMP: true}
	m.InstallL2(io, true, false, func(env *guest.Env) {
		w.Run(env)
		if after != nil {
			after()
		}
	})
	m.Run()
	return w, m
}

// netRRMachine is runNetRR checked for completion.
func netRRMachine(t *testing.T, mode hv.Mode, n int) (*workload.NetRR, *Machine) {
	t.Helper()
	w, m := runNetRR(mode, n, nil)
	if m.L0.DeadlockDetected {
		t.Fatal("deadlock")
	}
	if len(w.Lat) != n {
		t.Fatalf("completed %d/%d transactions", len(w.Lat), n)
	}
	return w, m
}

// TestRunReleasesGuestGoroutines: Run unwinds every native guest
// goroutine before it returns, wherever the guest is parked, so a
// finished machine holds no goroutine (and no heap) behind it. That
// holds for a run whose L2 body panics too: the panic reaches Run's
// caller unchanged, with L1's two vCPUs parked mid-run. Machines run
// two at a time, as a width-2 sweep runs them: a guest that has handed
// off its last exit but not yet parked on its resume channel is then
// common when Run releases it.
func TestRunReleasesGuestGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	const planted = "planted L2 panic"
	panicking := func() (r any) {
		defer func() { r = recover() }()
		runNetRR(hv.ModeSWSVt, 5, func() { panic(planted) })
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				runNetRR(hv.ModeSWSVt, 20, nil)
				runCPUID(hv.ModeBaseline, 50)
				if r := panicking(); r != planted {
					t.Errorf("Run panicked with %v, want %q", r, planted)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after Run, started with %d:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNestedNetRR(t *testing.T) {
	const n = 100
	w, m := netRRMachine(t, hv.ModeBaseline, n)
	s, err := stats.Summarize(w.Lat)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline TCP_RR: mean=%.1fus p50=%.1f p99=%.1f (n=%d)", s.Mean, s.P50, s.P99, len(w.Lat))
	t.Logf("L0 profile: misconfig=%.1f%% msr=%.1f%% extint=%.1f%%",
		100*m.L0.NestedProf.Share(isa.ExitEPTMisconfig), 100*m.L0.NestedProf.Share(isa.ExitMSRWrite), 100*m.L0.NestedProf.Share(isa.ExitExternalInterrupt))
	if s.Mean < 50 || s.Mean > 400 {
		t.Errorf("baseline RTT = %.1fus, want O(163us)", s.Mean)
	}

	wSW, _ := netRRMachine(t, hv.ModeSWSVt, n)
	wHW, _ := netRRMachine(t, hv.ModeHWSVt, n)
	sw := stats.Mean(wSW.Lat)
	hw := stats.Mean(wHW.Lat)
	t.Logf("TCP_RR: base=%.1f sw=%.1f (%.2fx) hw=%.1f (%.2fx)", s.Mean, sw, s.Mean/sw, hw, s.Mean/hw)
	if !(hw < sw && sw < s.Mean) {
		t.Errorf("ordering violated: base=%.1f sw=%.1f hw=%.1f", s.Mean, sw, hw)
	}
}
