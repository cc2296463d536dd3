// Package swsvt implements the software-only SVt prototype of §5.2: the
// shared-memory command rings between the host hypervisor thread (L0₀)
// and the SVt-thread inside the guest hypervisor (L1₁), the wait-policy
// models from the §6.1 channel study (polling, monitor/mwait, mutex, at
// three thread placements), and the interrupt-deadlock avoidance protocol
// of §5.3 (SVT_BLOCKED).
package swsvt

import (
	"errors"
	"fmt"
)

// CmdType discriminates ring commands (Figure 5).
type CmdType uint8

// Command types.
const (
	CmdNone CmdType = iota
	CmdVMTrap
	CmdVMResume
)

func (c CmdType) String() string {
	switch c {
	case CmdVMTrap:
		return "CMD_VM_TRAP"
	case CmdVMResume:
		return "CMD_VM_RESUME"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(c))
	}
}

// Cmd is one ring entry: the command plus the general-purpose register
// payload the prototype sends with it (§5.2: "this information includes
// general-purpose register values and the VM trap identifier").
type Cmd struct {
	Type CmdType
	Seq  uint64
	Exit uint64 // VM trap identifier
}

// ErrRingFull is returned by Push on a full ring.
var ErrRingFull = errors.New("swsvt: command ring full")

// Ring is a single-producer single-consumer command ring, the
// unidirectional shared-memory buffer the prototype maps through an
// ivshmem PCI device.
type Ring struct {
	buf        []Cmd
	head, tail uint64 // tail = next write, head = next read
	pushes     uint64
}

// NewRing returns a ring with capacity entries.
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]Cmd, capacity)}
}

// Len reports the number of queued commands. head and tail are free-
// running uint64 counters, so tail-head is the occupancy only while the
// invariant head <= tail <= head+cap holds; if it ever breaks (a caller
// corrupting the indices, or a wrapped subtraction) the difference
// underflows to an enormous value and every subsequent Push/Pop silently
// misbehaves. Fail loudly instead.
func (r *Ring) Len() int {
	n := r.tail - r.head
	if n > uint64(len(r.buf)) {
		panic(fmt.Sprintf("swsvt: ring corrupt: head=%d tail=%d cap=%d", r.head, r.tail, len(r.buf)))
	}
	return int(n)
}

// Push enqueues a command; the ring assigns the sequence number.
func (r *Ring) Push(c Cmd) error {
	if r.Len() == len(r.buf) {
		return ErrRingFull
	}
	c.Seq = r.pushes
	r.buf[r.tail%uint64(len(r.buf))] = c
	r.tail++
	r.pushes++
	return nil
}

// Pop dequeues the oldest command.
func (r *Ring) Pop() (Cmd, bool) {
	if r.Len() == 0 {
		return Cmd{}, false
	}
	c := r.buf[r.head%uint64(len(r.buf))]
	r.head++
	return c, true
}
