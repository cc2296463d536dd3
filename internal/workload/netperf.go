// Package workload implements the guest-side programs of the paper's
// evaluation: the cpuid micro-benchmark, netperf TCP_RR and TCP_STREAM,
// ioping / fio disk benchmarks, the memcached key-value server under
// Facebook's ETC workload, the TPC-C transaction mix, and the HFR video
// player. Workload bodies are plain Go over a guest environment; every
// privileged action they take is a genuinely trapping instruction.
package workload

import (
	"slices"

	"svtsim/internal/guest"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
)

// TCP timer constants for the RTO/delayed-ack modelling. Real guests
// re-arm their deadline timer around every segment — these MSR writes are
// the MSR_WRITE exits the paper's profiles attribute to "configuring
// timer interrupts (TSC deadline MSR)".
const tcpDelack = 40 * sim.Millisecond

// StreamAckEvery is the ack granularity both the guest stream workload
// and the peer model use: one ack packet acknowledges this many bytes.
const StreamAckEvery = 512 * 1024

// SMPWake models the Table 4 configuration where the guest has two
// experiment vCPUs: interrupt handling wakes the peer vCPU with an ICR
// write (MSR 0x830) — trapped, and reflected for a nested guest.
func SMPWake(env *guest.Env) {
	env.Port.Exec(isa.WRMSR(isa.MSRX2APICICR, 0xFB))
	// The woken vCPU acknowledges its IPI with its own (trapped) EOI.
	env.Port.Exec(isa.WRMSR(isa.MSRX2APICEOI, 0))
}

// NetRR is the netperf TCP_RR benchmark (§6.2): N request/response
// transactions of ReqSize bytes, measuring per-transaction round-trip
// latency in microseconds.
type NetRR struct {
	N        int
	ReqSize  int
	TCPModel bool // arm RTO on send, delayed-ack on receive
	SMP      bool // 2-vCPU wake modelling

	Lat []float64
}

// Run is the guest body.
func (w *NetRR) Run(env *guest.Env) {
	respReady := false
	delackArmed := false
	env.Net.OnReceive = func(pkt []byte) {
		respReady = true
		if w.TCPModel {
			env.Timer.Arm(env.Now() + tcpDelack)
			delackArmed = true
		}
		if w.SMP {
			SMPWake(env)
		}
	}
	req := make([]byte, w.ReqSize)
	w.Lat = slices.Grow(w.Lat, w.N)
	for i := 0; i < w.N; i++ {
		t0 := env.Now()
		respReady = false
		if w.TCPModel && delackArmed {
			// Sending data piggybacks the ack: cancel the delayed-ack timer
			// (another trapped deadline write).
			env.Timer.Disarm()
			delackArmed = false
		}
		env.Net.Send(req, nil)
		env.WaitFor(func() bool { return respReady })
		w.Lat = append(w.Lat, (env.Now() - t0).Microseconds())
	}
	if w.TCPModel {
		env.Timer.Disarm()
	}
}

// NetStream is the netperf TCP_STREAM benchmark: push MsgSize-byte
// messages for Duration with at most Window bytes in flight (acks from
// the peer open the window); throughput is measured at the receiver.
type NetStream struct {
	Duration sim.Time
	MsgSize  int
	Window   int
}

// Run is the guest body.
func (w *NetStream) Run(env *guest.Env) {
	sent := 0
	ackedBytes := 0
	env.Net.OnReceive = func(pkt []byte) {
		ackedBytes += StreamAckEvery
	}
	deadline := env.Now() + w.Duration
	msg := make([]byte, w.MsgSize)
	for env.Now() < deadline {
		if sent-ackedBytes+w.MsgSize > w.Window {
			env.WaitFor(func() bool {
				return sent-ackedBytes+w.MsgSize <= w.Window || env.Now() >= deadline
			})
			if env.Now() >= deadline {
				return
			}
			continue
		}
		env.Net.Send(msg, nil)
		sent += w.MsgSize
	}
}
