// Package x86 is the original architecture backend of the simulator,
// repackaged behind ports.Port: VT-x exit vocabulary, the paper's
// Table 1 cost calibration, and the LAPIC's pending set (the IRR). It is
// the default port and its behavior is frozen — the determinism
// goldens, the .sched differential corpus, and the svtbench digests
// all pin it byte-for-byte to the pre-ports engine.
package x86

import (
	"svtsim/internal/apic"
	"svtsim/internal/cost"
	"svtsim/internal/isa"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

type port struct{}

var singleton ports.Port = port{}

func init() { ports.Register(singleton) }

// Port returns the x86 port value.
func Port() ports.Port { return singleton }

func (port) Name() string { return "x86" }

// Costs returns the paper-calibrated Table 1 model unchanged.
func (port) Costs() cost.Model { return cost.Baseline() }

// ExitName renders VT-x vocabulary — exactly the isa stringer, so
// pre-ports trace goldens are unchanged.
func (port) ExitName(r isa.ExitReason) string { return r.String() }

func (port) Classify(r isa.ExitReason) ports.Class { return ports.DefaultClassify(r) }

func (port) NewIRQ(_ int, eng *sim.Engine) ports.IRQController {
	return ports.NewIRQ[apic.IRR](eng)
}

// IRQSectionPrefix is frozen: snapshot digests fold section names, and
// every pre-ports snapshot spells its LAPIC sections "lapic/...".
func (port) IRQSectionPrefix() string { return "lapic" }
