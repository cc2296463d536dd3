// Package swsvt implements the software-only SVt prototype of §5.2: the
// shared-memory command slots between the host hypervisor thread (L0₀)
// and the SVt-thread inside the guest hypervisor (L1₁), the wait-policy
// models from the §6.1 channel study (polling, monitor/mwait, mutex, at
// three thread placements), and the interrupt-deadlock avoidance protocol
// of §5.3 (SVT_BLOCKED).
package swsvt

import "fmt"

// The command words of Figure 5, as a slot's snapshot writes them.
const (
	cmdVMTrap   = 1
	cmdVMResume = 2
)

// Slot is one direction of the channel: the shared-memory buffer the
// prototype maps through an ivshmem PCI device. The exchange is strictly
// request/response for the one L2 vCPU, so a direction holds at most one
// command, and the direction fixes which: CMD_VM_TRAP toward the
// SVt-thread, CMD_VM_RESUME back. A trap carries the VM trap identifier
// (§5.2: "this information includes general-purpose register values and
// the VM trap identifier"); a resume carries nothing.
type Slot struct {
	cmd    uint64 // the command word this direction carries
	pushes uint64
	full   bool
	exit   uint64 // the queued trap's identifier; 0 when empty
}

// TrapSlot returns the empty L0₀ → SVt-thread slot (CMD_VM_TRAP).
func TrapSlot() Slot { return Slot{cmd: cmdVMTrap} }

// ResumeSlot returns the empty SVt-thread → L0₀ slot (CMD_VM_RESUME).
func ResumeSlot() Slot { return Slot{cmd: cmdVMResume} }

// Len reports the number of queued commands, 0 or 1.
func (s *Slot) Len() int {
	if s.full {
		return 1
	}
	return 0
}

// Push queues the direction's command with the trap identifier exit. A
// push onto a full slot is a broken protocol: each command is consumed,
// or reclaimed, before the next is sent.
func (s *Slot) Push(exit uint64) {
	if s.full {
		panic(fmt.Sprintf("swsvt: command %d pushed onto a full slot", s.cmd))
	}
	s.full, s.exit = true, exit
	s.pushes++
}

// Pop takes the queued command's trap identifier.
func (s *Slot) Pop() (exit uint64, ok bool) {
	if !s.full {
		return 0, false
	}
	exit = s.exit
	s.full, s.exit = false, 0
	return exit, true
}

// Queued returns the queued command's word and trap identifier without
// consuming it. It is what lets whole-machine digests fold residual
// protocol state: a command stranded in a slot is architecturally
// meaningful — an exit the SVt-thread never serviced, or a resume the
// vCPU never reaped — and must not be invisible to restore-transparency
// checks.
func (s *Slot) Queued() (cmd, exit uint64, ok bool) {
	return s.cmd, s.exit, s.full
}
