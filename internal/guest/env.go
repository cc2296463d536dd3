// Package guest implements the guest operating environment workloads run
// in: a minimal kernel (interrupt dispatch, timer, halting) and virtio
// front-end drivers for network and block devices. Workloads are plain Go
// functions over an Env — they execute as native guests on the simulated
// core, so every privileged action (MMIO kick, MSR write, HLT) is a real
// trapping instruction.
package guest

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// Env is the environment handed to a workload body.
type Env struct {
	Port *cpu.Port
	Mem  virtio.MemIO // the guest's own physical memory

	Net   *NetDriver
	Blk   *BlkDriver
	Timer *TimerDriver

	arena    uint64 // bump allocator over guest RAM
	arenaEnd uint64
	freeList map[uint64][]uint64 // size-bucketed recycled buffers
}

// NewEnv builds an environment whose buffer arena covers
// [arenaBase, arenaBase+arenaSize) of guest-physical memory.
func NewEnv(port *cpu.Port, m virtio.MemIO, arenaBase, arenaSize uint64) *Env {
	return &Env{
		Port: port, Mem: m,
		arena: arenaBase, arenaEnd: arenaBase + arenaSize,
		freeList: make(map[uint64][]uint64),
	}
}

// Alloc reserves n bytes of guest RAM (8-byte aligned), reusing
// previously freed buffers of the same bucket.
func (e *Env) Alloc(n uint64) uint64 {
	n = (n + 7) &^ 7
	if l := e.freeList[n]; len(l) > 0 {
		gpa := l[len(l)-1]
		e.freeList[n] = l[:len(l)-1]
		return gpa
	}
	a := (e.arena + 7) &^ 7
	if a+n > e.arenaEnd {
		panic(fmt.Sprintf("guest: arena exhausted (%d bytes requested)", n))
	}
	e.arena = a + n
	return a
}

// Free recycles a buffer previously obtained from Alloc with size n.
func (e *Env) Free(gpa, n uint64) {
	n = (n + 7) &^ 7
	e.freeList[n] = append(e.freeList[n], gpa)
}

// Now reports virtual time (zero when the environment has no port, as in
// unit tests of the non-executing parts).
func (e *Env) Now() sim.Time {
	if e.Port == nil {
		return 0
	}
	return e.Port.Now()
}

// Compute burns d of interruptible guest work.
func (e *Env) Compute(d sim.Time) { e.Port.Compute(d) }

// WaitFor halts the vCPU until cond holds, waking on each interrupt.
// It panics if the simulation runs out of events while waiting.
func (e *Env) WaitFor(cond func() bool) {
	for !cond() {
		e.Port.PollIRQs()
		if cond() {
			return
		}
		e.Port.ExecHLT()
		e.Port.PollIRQs()
	}
}

// IRQDispatch builds the kernel interrupt handler that routes vectors to
// the drivers; install it as the port's IRQHandler.
func (e *Env) IRQDispatch() func(vec int) {
	return func(vec int) {
		if e.Net != nil && vec == e.Net.Vector {
			e.Net.OnIRQ()
			return
		}
		if e.Blk != nil && vec == e.Blk.Vector {
			e.Blk.OnIRQ()
			return
		}
		if e.Timer != nil && vec == e.Timer.Vector {
			e.Timer.onIRQ()
			return
		}
	}
}

// TimerDriver programs the (virtualized) TSC-deadline timer. Every
// deadline write is a WRMSR that exits — the MSR_WRITE traps the paper's
// profiles attribute to timer reprogramming.
type TimerDriver struct {
	Env    *Env
	Vector int

	fired uint64
}

// NewTimerDriver wires the timer to the environment.
func NewTimerDriver(e *Env, vector int) *TimerDriver {
	t := &TimerDriver{Env: e, Vector: vector}
	e.Timer = t
	return t
}

// Arm sets the deadline to absolute virtual time t.
func (t *TimerDriver) Arm(deadline sim.Time) {
	t.Env.Port.Exec(isa.WRMSR(isa.MSRTSCDeadline, uint64(deadline)))
}

// Disarm cancels the deadline (a zero write, which also traps).
func (t *TimerDriver) Disarm() {
	t.Env.Port.Exec(isa.WRMSR(isa.MSRTSCDeadline, 0))
}

// Fired reports how many timer interrupts the guest handled.
func (t *TimerDriver) Fired() uint64 { return t.fired }

func (t *TimerDriver) onIRQ() {
	t.fired++
}

// WaitUntil arms the timer for the deadline and halts until it fires (or
// the deadline has passed).
func (t *TimerDriver) WaitUntil(deadline sim.Time) {
	if t.Env.Now() >= deadline {
		return
	}
	before := t.fired
	t.Arm(deadline)
	t.Env.WaitFor(func() bool { return t.fired > before || t.Env.Now() >= deadline })
}
