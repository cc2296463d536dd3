// Package check is the differential scenario harness: a deterministic
// generator emits schedules — compact, replayable interleavings of nested
// workload ops — and an oracle runs each schedule under every execution
// mode (baseline trap/resume, SW-SVt reflection, HW-SVt stall/resume, and
// the §3.1 bypass) on fresh machines, asserting that the nested guest
// observed identical architectural behavior. On failure a greedy shrinker
// minimizes the schedule and writes a seed-stamped repro file that
// `svtsim -replay` re-executes. See DESIGN.md §11.
package check

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"svtsim/internal/ports"
)

// OpKind enumerates the workload operations a schedule interleaves. Each
// op executes inside the nested (L2) guest and contributes its
// guest-visible results to the run's outcome digest.
type OpKind uint8

const (
	// OpCPUID executes a burst of 1+A%8 CPUID instructions at leaf
	// base B%1024, digesting all four result registers of each.
	OpCPUID OpKind = iota
	// OpHypercall issues VMCALL with qualification 0x100+A%64 to the
	// guest hypervisor and digests the returned RAX.
	OpHypercall
	// OpMSR writes the x2APIC ICR when A > 0 (an APIC-write exit),
	// then reads it back through a trapped RDMSR and digests the value.
	OpMSR
	// OpCompute charges 1+A%64 units of guest-local compute; no exit.
	OpCompute
	// OpTimer arms the virtual timer 1+A%5000 time units ahead and
	// HLTs until it fires, digesting the fired-count delta.
	OpTimer
	// OpNetPing sends a 1+A%256 byte frame to the echo peer and waits
	// for the response, digesting the received length.
	OpNetPing
	// OpBlkRead reads 1+B%4 sectors at sector A%4096 and digests the
	// data.
	OpBlkRead
	// OpBlkWrite writes 1+B%4 sectors of seeded pattern data at sector
	// A%4096 and digests the completion status.
	OpBlkWrite
	// OpIPI injects VecIPI at the L1 boundary; the delivered-IRQ set in
	// the outcome must agree across modes.
	OpIPI
	// OpSMPWake performs the §5.3 ICR-write wake sequence (only legal
	// with 2 vCPUs; decoded schedules with vcpus=1 reject it).
	OpSMPWake
	// OpNetRR runs request/response transactions over a reliable
	// netstack flow riding the same virtio NIC as OpNetPing's raw
	// frames: 1+A%4 requests of 1+B%128 bytes each to an L0-side peer
	// stack that echoes the payload. The echoed application byte
	// stream feeds the digest, so all four modes must deliver the
	// nested guest byte-identical flow contents — the transport-level
	// transparency claim on top of the frame-level one.
	OpNetRR
	numOpKinds
)

var opNames = [numOpKinds]string{
	OpCPUID:     "cpuid",
	OpHypercall: "hypercall",
	OpMSR:       "msr",
	OpCompute:   "compute",
	OpTimer:     "timer",
	OpNetPing:   "netping",
	OpBlkRead:   "blkread",
	OpBlkWrite:  "blkwrite",
	OpIPI:       "ipi",
	OpSMPWake:   "smpwake",
	OpNetRR:     "netrr",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one step of a schedule. A and B parameterize the operation; their
// interpretation is per-kind (see the OpKind constants). Keeping ops as
// flat integer triples makes schedules trivially fuzzable and shrinkable.
type Op struct {
	Kind OpKind
	A, B uint64
}

// Schedule is a replayable program for the differential harness. The
// zero value is not valid; build schedules with Generate or Decode.
type Schedule struct {
	// Seed feeds the machine config so fault-plane decisions (when any)
	// replay identically. It also names the schedule in repro files.
	Seed int64
	// VCPUs is the number of L2 vCPUs the schedule assumes (1 or 2).
	VCPUs int
	// Cores is the number of physical host cores the run models (1..8;
	// 0 and 1 both mean the classic single-core run). With more than one
	// core, OpIPI travels as a real cross-core IPI through the host apic
	// plane — distance-dependent latency, fault-plane exposure — before
	// it is injected at the L1 boundary. The guest-visible outcome must
	// be invariant to this: transparency cannot depend on how far the
	// interrupt travelled.
	Cores int
	// Port names the architecture port the schedule runs on; "" is the
	// default x86 port. A repro keeps the port its failure was found
	// and shrunk on, so its replay fails there too.
	Port string
	// WakeupDropRate, when nonzero, enables recoverable SVt wakeup-drop
	// fault injection at this rate. Transparency must hold regardless:
	// the watchdog/breaker machinery recovers without the nested guest
	// noticing anything but time.
	WakeupDropRate float64
	// Ops is the op sequence, executed in order on the L2 guest.
	Ops []Op
	// Migrate lists live-migration points: after op After completes (and
	// its boundary invariant sweep passes), the VM's gang is snapshotted,
	// digest-verified through a restore round trip, and live-migrated to
	// another core of the multi-core host, with the first Fails attempts
	// forced to fail (exercising retry, backoff, and — past the attempt
	// budget — atomic rollback). Requires Cores > 1. The guest-visible
	// outcome must be invariant to all of it.
	Migrate []MigratePoint
}

// MigratePoint is one scheduled live migration (see Schedule.Migrate).
type MigratePoint struct {
	// After is the index of the op after which the migration fires.
	After int
	// Fails forces the first Fails attempts to fail. With the default
	// MaxAttempts of 3, Fails >= 3 forces a rollback.
	Fails int
}

// UsesNet reports whether any op needs the virtio-net device wired.
func (s *Schedule) UsesNet() bool { return s.usesKind(OpNetPing) || s.usesKind(OpNetRR) }

// UsesBlk reports whether any op needs the virtio-blk device wired.
func (s *Schedule) UsesBlk() bool { return s.usesKind(OpBlkRead) || s.usesKind(OpBlkWrite) }

func (s *Schedule) usesKind(k OpKind) bool {
	for _, op := range s.Ops {
		if op.Kind == k {
			return true
		}
	}
	return false
}

// Encode renders the schedule in its canonical text form. Decoding the
// output and re-encoding it yields byte-identical text, which is what
// lets `svtsim -replay` round-trip repro files exactly.
func (s *Schedule) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "svtsched v1\n")
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "vcpus %d\n", s.VCPUs)
	// Only emitted when the schedule actually uses the multi-core host,
	// so pre-existing corpus files round-trip byte-identically.
	if s.Cores > 1 {
		fmt.Fprintf(&b, "cores %d\n", s.Cores)
	}
	// Likewise only for a port other than the default.
	if s.Port != "" {
		fmt.Fprintf(&b, "port %s\n", s.Port)
	}
	if s.WakeupDropRate > 0 {
		fmt.Fprintf(&b, "faults wakeup-drop %s\n", strconv.FormatFloat(s.WakeupDropRate, 'g', -1, 64))
	}
	for _, p := range s.Migrate {
		fmt.Fprintf(&b, "migrate %d %d\n", p.After, p.Fails)
	}
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "op %s %d %d\n", op.Kind, op.A, op.B)
	}
	return []byte(b.String())
}

func (s *Schedule) String() string { return string(s.Encode()) }

// Decode parses the canonical text form produced by Encode. Lines that
// are empty or start with '#' are ignored so corpus files can carry
// commentary; everything else is validated strictly.
func Decode(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	s := &Schedule{VCPUs: 1}
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if !sawHeader {
			if len(f) != 2 || f[0] != "svtsched" || f[1] != "v1" {
				return nil, fmt.Errorf("check: line %d: expected \"svtsched v1\" header", line)
			}
			sawHeader = true
			continue
		}
		switch f[0] {
		case "seed":
			if len(f) != 2 {
				return nil, fmt.Errorf("check: line %d: seed wants 1 argument", line)
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("check: line %d: seed: %v", line, err)
			}
			s.Seed = v
		case "vcpus":
			if len(f) != 2 {
				return nil, fmt.Errorf("check: line %d: vcpus wants 1 argument", line)
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v < 1 || v > 2 {
				return nil, fmt.Errorf("check: line %d: vcpus must be 1 or 2", line)
			}
			s.VCPUs = v
		case "cores":
			if len(f) != 2 {
				return nil, fmt.Errorf("check: line %d: cores wants 1 argument", line)
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v < 1 || v > 8 {
				return nil, fmt.Errorf("check: line %d: cores must be in 1..8", line)
			}
			s.Cores = v
		case "port":
			if len(f) != 2 {
				return nil, fmt.Errorf("check: line %d: port wants 1 argument", line)
			}
			p, err := ports.Parse(f[1])
			if err != nil {
				return nil, fmt.Errorf("check: line %d: %v", line, err)
			}
			s.Port = portName(p)
		case "faults":
			if len(f) != 3 || f[1] != "wakeup-drop" {
				return nil, fmt.Errorf("check: line %d: only \"faults wakeup-drop <rate>\" is supported", line)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil || v <= 0 || v > 1 {
				return nil, fmt.Errorf("check: line %d: wakeup-drop rate must be in (0,1]", line)
			}
			s.WakeupDropRate = v
		case "migrate":
			if len(f) != 3 {
				return nil, fmt.Errorf("check: line %d: migrate wants <after> <fails>", line)
			}
			after, err := strconv.Atoi(f[1])
			if err != nil || after < 0 {
				return nil, fmt.Errorf("check: line %d: migrate after must be >= 0", line)
			}
			fails, err := strconv.Atoi(f[2])
			if err != nil || fails < 0 || fails > 8 {
				return nil, fmt.Errorf("check: line %d: migrate fails must be in 0..8", line)
			}
			s.Migrate = append(s.Migrate, MigratePoint{After: after, Fails: fails})
		case "op":
			if len(f) != 4 {
				return nil, fmt.Errorf("check: line %d: op wants kind and 2 arguments", line)
			}
			kind, ok := opByName(f[1])
			if !ok {
				return nil, fmt.Errorf("check: line %d: unknown op %q", line, f[1])
			}
			a, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("check: line %d: op arg A: %v", line, err)
			}
			b, err := strconv.ParseUint(f[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("check: line %d: op arg B: %v", line, err)
			}
			s.Ops = append(s.Ops, Op{Kind: kind, A: a, B: b})
		default:
			return nil, fmt.Errorf("check: line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("check: missing \"svtsched v1\" header")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func opByName(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

func (s *Schedule) validate() error {
	if len(s.Ops) == 0 {
		return fmt.Errorf("check: schedule has no ops")
	}
	if s.VCPUs < 2 && s.usesKind(OpSMPWake) {
		return fmt.Errorf("check: smpwake requires vcpus 2")
	}
	if len(s.Migrate) > 0 && s.Cores < 2 {
		return fmt.Errorf("check: migrate requires cores >= 2")
	}
	for _, p := range s.Migrate {
		if p.After >= len(s.Ops) {
			return fmt.Errorf("check: migrate after %d out of range (schedule has %d ops)", p.After, len(s.Ops))
		}
	}
	return nil
}

// sortedKinds returns the distinct op kinds used, for diagnostics.
func (s *Schedule) sortedKinds() []string {
	seen := map[OpKind]bool{}
	for _, op := range s.Ops {
		seen[op.Kind] = true
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}
