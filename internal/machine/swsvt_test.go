package machine

import (
	"testing"

	"svtsim/internal/cpu"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/swsvt"
)

// ipiCpuidLoop is the §5.3 scenario driver: a nested workload whose VM
// traps are served by the SVt-thread while, mid-run, an L1 kernel thread
// sends an IPI to the (blocked) L1 main vCPU and waits for it to be
// handled.
type ipiCpuidLoop struct {
	n, i int
}

func (g *ipiCpuidLoop) Step() cpu.Action {
	if g.i >= g.n {
		return cpu.Action{Kind: cpu.ActDone}
	}
	g.i++
	return cpu.Action{Kind: cpu.ActInstr, Instr: isa.CPUID(1)}
}
func (g *ipiCpuidLoop) DeliverIRQ(int) {}

// runBlockedScenario runs the §5.3 interrupt-deadlock scenario and
// reports whether the IPI to the blocked L1 main vCPU was handled.
func runBlockedScenario(t *testing.T, protocol bool) (handled bool, blockedEvents uint64) {
	t.Helper()
	cfg := DefaultConfig(hv.ModeSWSVt)
	cfg.BlockedProtocol = protocol
	m := NewNested(cfg)
	// Mid-run, a kernel thread in L1 (modelled at its source) sends an IPI
	// to the L1 main vCPU, which is blocked inside its VMRESUME while the
	// SVt-thread serves L2 traps.
	m.Eng.At(50*sim.Microsecond, func() {
		m.L0.InjectIRQ(m.VcpuL1, ports.VecIPI)
	})
	m.SetL2Workload(&ipiCpuidLoop{n: 100})
	m.Run()
	// The main vCPU's kernel acknowledges the vector as it runs its
	// handler; in the real scenario the sender spins until then (a
	// TLB-shootdown acknowledgement).
	return !m.VcpuL1.VirtLAPIC.HasPending(), m.Chan.BlockedEvents.Value()
}

func TestSVtBlockedProtocolDeliversIPI(t *testing.T) {
	handled, events := runBlockedScenario(t, true)
	if !handled {
		t.Fatal("with the §5.3 protocol the blocked vCPU must run its IPI handler")
	}
	if events == 0 {
		t.Fatal("the SVT_BLOCKED path must have been exercised")
	}
}

func TestWithoutBlockedProtocolIPIHangs(t *testing.T) {
	handled, events := runBlockedScenario(t, false)
	if handled {
		t.Fatal("without the protocol the blocked vCPU must never run its handler (the deadlock §5.3 describes)")
	}
	if events != 0 {
		t.Fatalf("no SVT_BLOCKED events expected, got %d", events)
	}
}

func TestSWSVtWaitPolicies(t *testing.T) {
	// Every wait policy and placement must complete the nested workload;
	// mwait at SMT must be the fastest placement for its policy.
	results := make(map[string]sim.Time)
	for _, pol := range []swsvt.Policy{swsvt.PolicyMwait, swsvt.PolicyPoll, swsvt.PolicyMutex} {
		for _, place := range []swsvt.Placement{swsvt.PlaceSMT, swsvt.PlaceCrossCore, swsvt.PlaceCrossNUMA} {
			cfg := DefaultConfig(hv.ModeSWSVt)
			cfg.WaitPolicy = pol
			cfg.Placement = place
			m := NewNested(cfg)
			m.SetL2Workload(&ipiCpuidLoop{n: 100})
			m.Run()
			if m.L0.DeadlockDetected {
				t.Fatalf("pol=%v place=%v deadlocked", pol, place)
			}
			results[cfg.WaitPolicy.String()+"/"+cfg.Placement.String()] = m.Now()
		}
	}
	if !(results["mwait/smt"] < results["mwait/cross-numa"]) {
		t.Error("NUMA placement must be slower than SMT")
	}
}

// Under SW SVt the SVt-thread is L1's second vCPU, not a second guest
// hypervisor: it serves L2's traps with the one instance the main vCPU
// boots, whose device map the kernel wiring fills.
func TestSWSVtOneL1Hypervisor(t *testing.T) {
	_, m := netRRMachine(t, hv.ModeSWSVt, 5)
	if m.SVtThread.H1 != m.L1HV {
		t.Fatal("the SVt-thread serves traps with a hypervisor other than m.L1HV")
	}
	if m.L1HV.Devices[DevL2Net] == nil {
		t.Fatal("L1's hypervisor has no L2 net device after the SVt-thread wired L1's kernel")
	}
	if m.SVtThread.Handled == 0 {
		t.Fatal("the SVt-thread served no trap")
	}
}

// TestSVtBlockedServiceLoop drives the rest of §5.3's service loop.
// While L1₀ runs its IPI handler, a physical interrupt arrives on its
// context, so it exits to L0₀ mid-service. L0₀ routes that vector to
// L1₀, which then yields with it still pending, and L0₀ presents
// SVT_BLOCKED again.
func TestSVtBlockedServiceLoop(t *testing.T) {
	const vec = 0x33
	cfg := DefaultConfig(hv.ModeSWSVt)
	sent := false
	cfg.WireL1 = func(m *Machine, _ *hv.Hypervisor, _ *cpu.Port) {
		main := m.L1Guest.Port()
		handler := main.IRQHandler
		main.IRQHandler = func(v int) {
			handler(v)
			if v == ports.VecIPI && !sent {
				sent = true
				// A physical vector every 10 ns for 100 µs: every
				// instruction boundary of the service run finds one due,
				// the boundary of its VMRESUME included.
				phys := m.Core.LAPIC(m.Core.IRQContext(m.VcpuL1.Ctx))
				for d := sim.Time(10); d <= 100*sim.Microsecond; d += 10 {
					m.Eng.After(d, func() { phys.Deliver(vec) })
				}
			}
		}
		m.L0.VectorRoute[vec] = m.VcpuL1
	}
	m := NewNested(cfg)
	m.Eng.At(50*sim.Microsecond, func() {
		m.L0.InjectIRQ(m.VcpuL1, ports.VecIPI)
	})
	m.SetL2Workload(&ipiCpuidLoop{n: 100})
	m.Run()
	if !sent || m.VcpuL1.VirtLAPIC.HasPending() {
		t.Fatalf("sent=%v: the blocked vCPU must run both handlers", sent)
	}
	// Each service presents SVT_BLOCKED once, and once more per yield
	// with a vector still pending.
	services, presented := m.Chan.BlockedEvents.Value(), m.L1HV.Prof.Count[isa.ExitSVTBlocked]
	if services == 0 || presented <= services {
		t.Fatalf("%d services presented SVT_BLOCKED %d times, want more", services, presented)
	}
}

// TestStateDigestFoldsStrandedCommands: a command left in a reflection
// slot is protocol state the digest must see, though every run ends, and
// every op boundary falls, with both slots empty.
func TestStateDigestFoldsStrandedCommands(t *testing.T) {
	m := NewNested(DefaultConfig(hv.ModeSWSVt))
	m.SetL2Workload(&ipiCpuidLoop{n: 10})
	m.Run()
	before := m.StateDigest()
	m.Chan.ToSVt.Push(uint64(isa.ExitCPUID))
	if m.StateDigest() == before {
		t.Fatal("a stranded CMD_VM_TRAP left the digest unchanged")
	}
}
