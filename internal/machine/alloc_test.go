package machine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"svtsim/internal/cpu"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/netsim"
	"svtsim/internal/ports"
	_ "svtsim/internal/ports/armlike"
	x86port "svtsim/internal/ports/x86"
	"svtsim/internal/race"
	"svtsim/internal/sim"
	"svtsim/internal/workload"
)

var allocPorts = []ports.Port{x86port.Port(), ports.Get("armlike")}

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
			NewNested(cfg)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s/%s: NewNested allocated %d bytes", p.Name(), mode, got)
			if got > budget {
				t.Errorf("%s/%s: NewNested allocated %d bytes, budget %d", p.Name(), mode, got, budget)
			}
		}
	}
}

// runReads runs n nested block reads of size bytes on a fresh machine
// with the full I/O stack and reports the bytes the Run call allocated.
func runReads(t *testing.T, cfg Config, size, n int) uint64 {
	t.Helper()
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	done := 0
	m.InstallL2(io, false, true, func(env *guest.Env) {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if !env.Blk.Read(uint64(i%64)*8, buf) {
				t.Error("nested read failed")
				return
			}
			done++
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	if m.L0.DeadlockDetected || done != n {
		t.Fatalf("%d of %d reads done (deadlock=%v)", done, n, m.L0.DeadlockDetected)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// leastOf3 is the least of three runs' counts: anything else the
// process allocates meanwhile only adds to a run's count.
func leastOf3(run func() uint64) uint64 {
	return min(run(), run(), run())
}

// minReads is runReads' least of three runs.
func minReads(t *testing.T, cfg Config, size, n int) uint64 {
	return leastOf3(func() uint64 { return runReads(t, cfg, size, n) })
}

// A nested block read moves its data by guest address from the disk to
// L1's buffer and from there to L2's: no hop holds the payload in a Go
// buffer of its size. So a 4 KB read costs the same heap bytes as a
// 512 B one, on every port and in every mode, and both stay under a
// small per-op budget. The disk keeps its requests in a FIFO beside
// their completion events, and each driver writes its header from an
// array it owns and keeps a synchronous request's result, so a read
// measures 0 B once the rings and arena have warmed up.
func TestBlkRoundTripAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const (
		n1, n2 = 100, 200
		budget = 64 // bytes per read; 0 measured on go1.24
	)
	// The process's first nested I/O run pays one-time costs of its own.
	runReads(t, portConfig(allocPorts[0], hv.ModeBaseline), 512, 1)
	for _, p := range allocPorts {
		for _, mode := range hv.AllModes() {
			cfg := portConfig(p, mode)
			var per [2]float64
			for i, size := range []int{512, 4096} {
				b1 := minReads(t, cfg, size, n1)
				b2 := minReads(t, cfg, size, n2)
				per[i] = (float64(b2) - float64(b1)) / (n2 - n1)
			}
			t.Logf("%s/%s: %.0f B per 512 B read, %.0f B per 4 KB read", p.Name(), mode, per[0], per[1])
			if d := per[1] - per[0]; d > 64 || d < -64 {
				t.Errorf("%s/%s: a 4 KB read allocates %.0f B more than a 512 B read, want within 64 B", p.Name(), mode, d)
			}
			for i, b := range per {
				if b > budget {
					t.Errorf("%s/%s: %.0f B per read (size index %d), budget %d", p.Name(), mode, b, i, budget)
				}
			}
		}
	}
}

// runWrites runs n nested 512 B block writes on a fresh machine with
// the full I/O stack, each into a disk page no earlier write touched, in
// a shuffled order, and reports the bytes the Run call allocated. Every
// write carries the same buffer, whose two 256 B lines hold the same
// bytes, as ioping's does; with unique set, every line of every write
// holds bytes no other line does.
func runWrites(t *testing.T, cfg Config, n int, unique bool) uint64 {
	t.Helper()
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(n)
	done := 0
	m.InstallL2(io, false, true, func(env *guest.Env) {
		buf := make([]byte, 512)
		for i := range buf {
			buf[i] = byte(i) | 1
		}
		for i, pg := range order {
			if unique {
				binary.LittleEndian.PutUint32(buf, uint32(2*i))
				binary.LittleEndian.PutUint32(buf[256:], uint32(2*i+1))
			}
			if !env.Blk.Write(uint64(pg)*8+uint64(i%8), buf) {
				t.Error("nested write failed")
				return
			}
			done++
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	if m.L0.DeadlockDetected || done != n {
		t.Fatalf("%d of %d writes done (deadlock=%v)", done, n, m.L0.DeadlockDetected)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A nested 512 B write into a fresh disk sector moves its data by guest
// address, as a read does, and what it allocates is the disk's new
// storage. When its lines hold the bytes of the last whole line the
// disk stored, as both lines of ioping's one buffer do, they share that
// line, and the write costs its 64 B page header and a page-map slot:
// 89 B per write on go1.24 on both ports and in every mode, 589 B
// before lines were shared. A write of unique bytes backs two new 256 B
// lines besides, 589 B as before sharing: unique content pays nothing
// for it. With 128 B headers of line pointers and 16 B page-map slots
// it took 679 B.
func TestBlkWriteAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const n1, n2 = 100, 200
	runWrites(t, portConfig(allocPorts[0], hv.ModeBaseline), 1, false)
	for _, tc := range []struct {
		name   string
		unique bool
		budget float64 // bytes per write
	}{
		{"repeated", false, 128},
		{"unique", true, 640},
	} {
		for _, p := range allocPorts {
			for _, mode := range hv.AllModes() {
				cfg := portConfig(p, mode)
				b1 := leastOf3(func() uint64 { return runWrites(t, cfg, n1, tc.unique) })
				b2 := leastOf3(func() uint64 { return runWrites(t, cfg, n2, tc.unique) })
				per := (float64(b2) - float64(b1)) / (n2 - n1)
				t.Logf("%s/%s/%s: %.0f B per 512 B write into a fresh sector", tc.name, p.Name(), mode, per)
				if per > tc.budget {
					t.Errorf("%s/%s/%s: %.0f B per write, budget %.0f", tc.name, p.Name(), mode, per, tc.budget)
				}
			}
		}
	}
}

// runRR runs n netperf TCP_RR transactions of size-byte requests against
// an echo peer with fixed 64-byte responses, on a fresh machine with the
// full I/O stack, and reports the bytes the Run call allocated.
func runRR(t *testing.T, cfg Config, size, n int) uint64 {
	t.Helper()
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	io.NIC.Peer = &netsim.EchoPeer{
		Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
		ServiceTime: 5 * sim.Microsecond, RespSize: 64,
	}
	w := &workload.NetRR{N: n, ReqSize: size}
	m.InstallL2(io, true, false, func(env *guest.Env) { w.Run(env) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	if m.L0.DeadlockDetected || len(w.Lat) != n {
		t.Fatalf("%d of %d transactions done (deadlock=%v)", len(w.Lat), n, m.L0.DeadlockDetected)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A nested TCP_RR request leaves simulated memory twice: L1's vhost
// backend reads it out of L2's memory, and L0's backend reads it out of
// L1's. Every hop borrows the packet for the call, and each one that
// keeps it longer (the NIC's DMA, the link, the echo peer, a backend's
// receive queue) copies it into storage it recycles, as the backends'
// and drivers' reads out of guest memory do. After the first packet
// grows that storage, a transaction allocates no packet bytes at all: a
// 1 KB request costs at most 64 B more than a 64 B one, on every port
// and in every mode. What remains per transaction is the workload's own
// latency sample (8 B, grown once to n), under a fixed budget.
//
// The window still holds first touches: two RX-buffer pages that had
// only received zeros take their first nonzero bytes, and with them
// their page headers, and six lines are backed. Guest memory carves
// headers and lines from chunks of 16, and these land in chunks already
// allocated, so the window reads 9 B. First-touch costs are gated by a
// bound on the whole 200-transaction run instead. On both ports it
// measures 39,480 B with 64 B requests and 44,280 B with 1 KB ones
// (232 B more in SW SVt) on go1.24, as it did before lines were shared:
// the run writes no whole line. When every page touched got a 128 B
// header it measured 51,768 B and 56,568 B.
func TestNetRoundTripAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const (
		n1, n2     = 100, 200
		small, big = 64, 1024
		budget     = 10       // bytes per transaction; 9 measured on go1.24, 2,249 before packets were borrowed
		runBudget  = 48 << 10 // bytes for the whole n2-transaction run
	)
	runRR(t, portConfig(allocPorts[0], hv.ModeBaseline), small, 1)
	for _, p := range allocPorts {
		for _, mode := range hv.AllModes() {
			cfg := portConfig(p, mode)
			var per [2]float64
			var run [2]uint64
			for i, size := range []int{small, big} {
				b1 := leastOf3(func() uint64 { return runRR(t, cfg, size, n1) })
				run[i] = leastOf3(func() uint64 { return runRR(t, cfg, size, n2) })
				per[i] = (float64(run[i]) - float64(b1)) / (n2 - n1)
			}
			t.Logf("%s/%s: %.0f B per 64 B transaction, %.0f B per 1 KB transaction; %d B and %d B per %d-transaction run",
				p.Name(), mode, per[0], per[1], run[0], run[1], n2)
			for i, b := range run {
				if b > runBudget {
					t.Errorf("%s/%s: a %d-transaction run allocates %d B (size index %d), budget %d", p.Name(), mode, n2, b, i, runBudget)
				}
			}
			if d := per[1] - per[0]; d > 64 {
				t.Errorf("%s/%s: a 1 KB request allocates %.0f B more than a 64 B one, want at most 64 B", p.Name(), mode, d)
			}
			for i, b := range per {
				if b > budget {
					t.Errorf("%s/%s: %.0f B per transaction (size index %d), budget %d", p.Name(), mode, b, i, budget)
				}
			}
		}
	}
}

// allocatedBy reports the heap bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bringUpNetDrivers boots a wired nested I/O machine whose L2 body
// builds L2's net driver itself, as InstallL2 would. It reports the
// bytes allocated while L1's kernel is wired, which builds L1's net
// driver, and while L2's driver is built. In SW SVt the SVt-thread
// wires L1's kernel on L2's first exit, inside L2's window; L2's figure
// then leaves L1's bytes out.
func bringUpNetDrivers(t *testing.T, cfg Config) (l1, l2 uint64) {
	t.Helper()
	io := WireNestedIO(&cfg, DefaultIOParams())
	wire := cfg.WireL1
	var inL2, nested bool
	cfg.WireL1 = func(m *Machine, h1 *hv.Hypervisor, port *cpu.Port) {
		nested = inL2
		l1 = allocatedBy(func() { wire(m, h1, port) })
	}
	m := NewNested(cfg)
	var err error
	m.InstallL2(io, false, false, func(env *guest.Env) {
		inL2 = true
		l2 = allocatedBy(func() {
			_, err = guest.NewNetDriver(env, ports.VecVirtioNet, L2NetMMIO, l2NetLayout)
		})
		inL2 = false
	})
	m.Run()
	if m.L0.DeadlockDetected || err != nil || io.L1NetDrv == nil || io.L2Env.Net == nil {
		t.Fatalf("net drivers not up (deadlock=%v, L2 driver error %v)", m.L0.DeadlockDetected, err)
	}
	if nested {
		l2 -= l1
	}
	return l1, l2
}

// Every fleet and svtsimd cell brings up two net drivers: L1's, while
// its kernel is wired, and L2's. Each posts 64 RX buffers into a table
// sized for them once. L1's figure is its whole kernel wiring: its blk
// driver and the two vhost backends besides its net driver. L2's
// includes the exits its device probe takes; in SW SVt the first of
// them also boots the SVt-thread. Measured on go1.24, both together
// take 26,896 B (28,352 B in SW SVt) on both ports; with per-head maps,
// before the tables, they took 38,272 B (39,728 B).
func TestNetDriverSetupAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	bringUpNetDrivers(t, portConfig(allocPorts[0], hv.ModeBaseline))
	for _, p := range allocPorts {
		for _, mode := range hv.AllModes() {
			cfg := portConfig(p, mode)
			l1, l2 := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				a, b := bringUpNetDrivers(t, cfg)
				l1, l2 = min(l1, a), min(l2, b)
			}
			t.Logf("%s/%s: %d B wiring L1's kernel, %d B building L2's net driver", p.Name(), mode, l1, l2)
			budget := uint64(30 << 10) // +14.2% over 26,896 B
			if mode == hv.ModeSWSVt {
				budget = 31 << 10 // +12.0% over 28,352 B
			}
			if l1+l2 > budget {
				t.Errorf("%s/%s: bringing up both net drivers allocated %d B, budget %d", p.Name(), mode, l1+l2, budget)
			}
		}
	}
}
