// Package host models a fleet-scale machine: N sockets of M cores with
// T SMT contexts each, sharing one virtual-time engine, with an L0
// scheduler that places and migrates vCPUs and SW-SVt threads across the
// topology. Placement distance (sibling-SMT vs cross-core vs cross-NUMA)
// emerges from where the scheduler lands each thread, not from a
// per-machine configuration enum; cross-core reschedule IPIs travel
// through the same apic plane single-machine runs use.
package host

import (
	"fmt"
	"strconv"
	"strings"

	"svtsim/internal/swsvt"
	"svtsim/internal/uerr"
)

// Topology describes the hardware shape of a host: how many sockets, how
// many physical cores per socket, and how many SMT hardware contexts per
// core (the paper's testbed — Table 4 — is two sockets of eight 2-way
// SMT cores: "2x8x2").
type Topology struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
}

// DefaultTopology mirrors the paper's Table 4 testbed.
var DefaultTopology = Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2}

// maxContexts caps a topology's hardware contexts.
const maxContexts = 4096

// topologyHint is the shared "what would have parsed" message.
const topologyHint = "want sockets x cores x SMT-threads, e.g. 2x8x2, or CxT for one socket, e.g. 8x2"

// ParseTopology parses the "SxCxT" flag syntax ("2x8x2"). A two-field
// form "CxT" means one socket. Failures are structured *uerr.E values —
// the CLI prints them flat, svtsimd returns the fields as an HTTP 400
// body — so the message must make sense to whoever typed the flag or
// request, not just to a developer reading a stack trace.
func ParseTopology(s string) (Topology, error) {
	parts := strings.Split(s, "x")
	var nums []int
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Topology{}, uerr.New("topology", s,
				fmt.Sprintf("%q is not a number", strings.TrimSpace(p)), topologyHint)
		}
		nums = append(nums, n)
	}
	var t Topology
	switch len(nums) {
	case 2:
		t = Topology{Sockets: 1, CoresPerSocket: nums[0], ThreadsPerCore: nums[1]}
	case 3:
		t = Topology{Sockets: nums[0], CoresPerSocket: nums[1], ThreadsPerCore: nums[2]}
	default:
		return Topology{}, uerr.New("topology", s,
			fmt.Sprintf("%d fields", len(nums)), topologyHint)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Validate rejects degenerate shapes with the same structured errors
// ParseTopology reports, so programmatic Topology values surface
// user-facing messages too.
func (t Topology) Validate() error {
	if t.Sockets < 1 || t.CoresPerSocket < 1 || t.ThreadsPerCore < 1 {
		return uerr.New("topology", t.String(), "all dimensions must be >= 1", topologyHint)
	}
	if t.ThreadsPerCore > 2 {
		return uerr.New("topology", t.String(),
			fmt.Sprintf("%d SMT contexts per core", t.ThreadsPerCore),
			"the model supports at most 2-way SMT (the paper's testbed)")
	}
	// Bound each dimension before multiplying: a product of unbounded
	// dimensions can overflow back under the cap, even to zero.
	if t.Sockets > maxContexts || t.CoresPerSocket > maxContexts {
		return uerr.New("topology", t.String(),
			fmt.Sprintf("more than %d hardware contexts", maxContexts),
			"shrink sockets, cores, or threads")
	}
	if t.Contexts() > maxContexts {
		return uerr.New("topology", t.String(),
			fmt.Sprintf("%d hardware contexts exceeds the %d cap", t.Contexts(), maxContexts),
			"shrink sockets, cores, or threads")
	}
	if t.Contexts() < 2 {
		return uerr.New("topology", t.String(), "1 hardware context",
			"a SW-SVt gang needs two hardware contexts, e.g. 1x1x2")
	}
	return nil
}

func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d", t.Sockets, t.CoresPerSocket, t.ThreadsPerCore)
}

// Cores reports the total number of physical cores.
func (t Topology) Cores() int { return t.Sockets * t.CoresPerSocket }

// Contexts reports the total number of SMT hardware contexts.
func (t Topology) Contexts() int { return t.Cores() * t.ThreadsPerCore }

// CtxID is a global hardware-context index, socket-major:
//
//	ctx = (socket*CoresPerSocket + core)*ThreadsPerCore + thread
type CtxID int

// Ctx builds a context ID from (socket, core-within-socket, thread).
func (t Topology) Ctx(socket, core, thread int) CtxID {
	return CtxID((socket*t.CoresPerSocket+core)*t.ThreadsPerCore + thread)
}

// CoreOf reports the global physical-core index of a context.
func (t Topology) CoreOf(c CtxID) int { return int(c) / t.ThreadsPerCore }

// ThreadOf reports the SMT thread index of a context within its core.
func (t Topology) ThreadOf(c CtxID) int { return int(c) % t.ThreadsPerCore }

// SocketOf reports the socket index of a context.
func (t Topology) SocketOf(c CtxID) int { return t.CoreOf(c) / t.CoresPerSocket }

// Sibling reports the SMT sibling of a context, or -1 on a non-SMT core.
func (t Topology) Sibling(c CtxID) CtxID {
	if t.ThreadsPerCore < 2 {
		return -1
	}
	return CtxID(int(c) ^ 1)
}

// Distance classifies how far apart two hardware contexts are; wake
// signalling cost rises with each step.
type Distance int

const (
	// DistSelf: the same hardware context.
	DistSelf Distance = iota
	// DistSMT: sibling hyperthreads on one physical core.
	DistSMT
	// DistCore: different cores on one socket.
	DistCore
	// DistNUMA: different sockets.
	DistNUMA
)

func (d Distance) String() string {
	switch d {
	case DistSelf:
		return "self"
	case DistSMT:
		return "smt"
	case DistCore:
		return "cross-core"
	case DistNUMA:
		return "cross-numa"
	}
	return fmt.Sprintf("Distance(%d)", int(d))
}

// DistanceOf classifies the separation between two contexts.
func (t Topology) DistanceOf(a, b CtxID) Distance {
	switch {
	case a == b:
		return DistSelf
	case t.CoreOf(a) == t.CoreOf(b):
		return DistSMT
	case t.SocketOf(a) == t.SocketOf(b):
		return DistCore
	default:
		return DistNUMA
	}
}

// PlacementOf maps a topological distance onto the swsvt placement enum
// the per-machine cost model consumes. This is the bridge that makes
// placement emerge from topology: the scheduler picks contexts, and the
// distance between a vCPU and its SVt-thread decides the wake-latency
// class — not a hand-set per-machine knob.
func (t Topology) PlacementOf(a, b CtxID) swsvt.Placement {
	switch t.DistanceOf(a, b) {
	case DistNUMA:
		return swsvt.PlaceCrossNUMA
	case DistCore:
		return swsvt.PlaceCrossCore
	default:
		return swsvt.PlaceSMT
	}
}
