// Package server is svtsim's serving layer: a long-running HTTP/JSON
// daemon (cmd/svtsimd) that wraps the experiment Session and serves
// concurrent simulation requests — density sweeps, migration storms,
// load-balancer scenarios, fleet replays, differential checks, fault
// grids, and the paper's single-machine figure workloads — behind a
// bounded job queue and a content-addressed result cache.
//
// Determinism is the load-bearing wall: every experiment is a pure
// function of its canonical request, so a request's SHA-256 digest
// addresses its result forever. A cache hit is byte-identical to the
// cold run that produced it, which the test suite asserts across all
// four paper modes, and concurrent identical submissions coalesce onto
// one in-flight simulation. See DESIGN.md §15.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"svtsim/internal/exp"
	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/ports"
	"svtsim/internal/uerr"
)

// Request kinds.
const (
	KindDensity   = "density"   // fleet consolidation sweep (exp.DensitySweep)
	KindStorm     = "storm"     // migration storm table (exp.StormTable)
	KindFleet     = "fleet"     // fleet-scale engine replay (exp.FleetReplay)
	KindCheck     = "check"     // differential cross-mode check (internal/check)
	KindFaultGrid = "faultgrid" // fault-injection sweep grid (exp.FaultSweepGrid)
	KindWorkload  = "workload"  // one single-machine figure workload per mode
	KindLB        = "lb"        // load-balancer scenario table (exp.LoadBalancerTable)
)

// workloadNames lists the workloads KindWorkload accepts.
var workloadNames = []string{"cpuid", "netrr", "stream", "diskrd", "diskwr", "memcached", "tpcc", "video"}

// WorkloadNames returns the workloads KindWorkload accepts, in the
// paper's figure order.
func WorkloadNames() []string { return slices.Clone(workloadNames) }

// Request is one experiment submission. The JSON shape doubles as the
// canonical digest preimage: Canonicalize validates the fields, fills
// every default, and zeroes everything the kind does not consume, so
// two requests that mean the same experiment digest identically no
// matter how sparsely they were written.
type Request struct {
	Kind     string   `json:"kind"`
	Modes    []string `json:"modes,omitempty"`
	Topology string   `json:"topology,omitempty"`
	Shards   int      `json:"shards,omitempty"` // ignored; always 1 once canonical
	Seed     int64    `json:"seed,omitempty"`

	// Port selects the architecture backend. Canonical form spells the
	// default x86 port as "" (omitted from JSON), so every digest minted
	// before the ports layer existed still addresses the same result.
	Port string `json:"port,omitempty"`

	// Density / storm / lb knobs.
	VMs      int     `json:"vms,omitempty"`
	SLOUs    float64 `json:"slo_us,omitempty"`
	Storms   int     `json:"storms,omitempty"`
	Scenario string  `json:"scenario,omitempty"`

	// Fleet-replay knobs.
	DurMs      int `json:"dur_ms,omitempty"`
	CrossEvery int `json:"cross_every,omitempty"`

	// Workload knobs.
	Workload string  `json:"workload,omitempty"`
	N        int     `json:"n,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	FPS      int     `json:"fps,omitempty"`

	// Differential-check knobs.
	Schedules int `json:"schedules,omitempty"`

	// Fault plane (workload, density, storm, faultgrid).
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// Trace requests Perfetto/metrics artifacts rendered from the obs
	// plane; it forces the sweep onto one worker so the captured plane
	// is deterministic.
	Trace bool `json:"trace,omitempty"`
}

// digestSchema versions the digest preimage: bump it whenever the
// canonical encoding or the simulation's observable output changes
// shape, so stale caches can never serve bytes from another era.
const digestSchema = "svtsimd-req-v1"

// Canonicalize validates the request in place, fills defaults, zeroes
// fields the kind ignores, and rewrites modes and topology into their
// canonical spellings. All errors are structured *uerr.E values, which
// the HTTP layer returns as 400 bodies.
func (r *Request) Canonicalize() error {
	if r.Topology == "" {
		r.Topology = host.DefaultTopology.String()
	}
	topo, err := host.ParseTopology(r.Topology)
	if err != nil {
		return err
	}
	r.Topology = topo.String()

	// The host has one engine, so shards selects nothing. Pinning it to
	// 1 keeps "shards":1 in every preimage: digests minted when it chose
	// an engine shard count still address the same results, and requests
	// that differ only in shards share one cache entry.
	r.Shards = 1

	if len(r.Modes) == 0 {
		for _, m := range hv.AllModes() {
			r.Modes = append(r.Modes, m.String())
		}
	}
	for i, name := range r.Modes {
		m, err := hv.ParseMode(name)
		if err != nil {
			return err
		}
		r.Modes[i] = m.String()
	}

	// The default port's canonical spelling is "": requests minted
	// before the ports layer existed carried no port field, and their
	// digests must keep addressing the same cached results forever.
	p, err := ports.Parse(r.Port)
	if err != nil {
		return err
	}
	if r.Port = p.Name(); r.Port == ports.DefaultName {
		r.Port = ""
	}

	if err := r.canonFaults(); err != nil {
		return err
	}

	switch r.Kind {
	case KindDensity:
		if r.VMs <= 0 {
			r.VMs = topo.Contexts()
		}
		if r.SLOUs <= 0 {
			r.SLOUs = 500
		}
		r.Seed, r.Storms, r.DurMs, r.CrossEvery = 0, 0, 0, 0
		r.Workload, r.N, r.Rate, r.FPS, r.Schedules, r.Scenario = "", 0, 0, 0, 0, ""
	case KindStorm:
		if r.VMs <= 0 {
			r.VMs = 8
		}
		if r.Storms <= 0 {
			r.Storms = 12
		}
		if r.Seed == 0 {
			r.Seed = 42
		}
		r.SLOUs, r.DurMs, r.CrossEvery = 0, 0, 0
		r.Workload, r.N, r.Rate, r.FPS, r.Schedules, r.Scenario = "", 0, 0, 0, 0, ""
	case KindFleet:
		if r.DurMs <= 0 {
			r.DurMs = 20
		}
		if r.CrossEvery <= 0 {
			r.CrossEvery = 64
		}
		r.Modes = nil // the replay is mode-free: pure engine + IPIs
		r.Seed, r.VMs, r.SLOUs, r.Storms = 0, 0, 0, 0
		r.Workload, r.N, r.Rate, r.FPS, r.Schedules, r.Scenario = "", 0, 0, 0, 0, ""
		r.Faults, r.FaultSeed, r.Trace = "", 0, false
	case KindCheck:
		if r.Schedules <= 0 {
			r.Schedules = 25
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
		r.Modes = nil // the oracle always runs the full mode set
		r.VMs, r.SLOUs, r.Storms, r.DurMs, r.CrossEvery = 0, 0, 0, 0, 0
		r.Workload, r.N, r.Rate, r.FPS, r.Scenario = "", 0, 0, 0, ""
		r.Faults, r.FaultSeed, r.Trace = "", 0, false
	case KindFaultGrid:
		if r.Faults == "" {
			return uerr.New("faults", "", "a fault grid needs a fault spec",
				"set faults (site:key=val,...)")
		}
		if r.N <= 0 {
			r.N = 200
		}
		if r.Storms > 0 && r.VMs <= 0 {
			r.VMs = 6
		}
		if r.Storms > 0 && r.Seed == 0 {
			r.Seed = 42
		}
		if r.Storms <= 0 {
			r.VMs, r.Seed = 0, 0
		}
		r.SLOUs, r.DurMs, r.CrossEvery = 0, 0, 0
		r.Workload, r.Rate, r.FPS, r.Schedules, r.Scenario = "", 0, 0, 0, ""
	case KindWorkload:
		if r.Workload == "" {
			r.Workload = "cpuid"
		}
		if !slices.Contains(workloadNames, r.Workload) {
			return uerr.New("workload", r.Workload, "unknown workload",
				"valid: "+strings.Join(workloadNames, ", "))
		}
		switch r.Workload {
		case "cpuid", "netrr", "diskrd", "diskwr":
			if r.N <= 0 {
				r.N = 500
			}
			r.DurMs, r.Rate, r.FPS = 0, 0, 0
		case "stream", "tpcc":
			if r.DurMs <= 0 {
				r.DurMs = 1000
			}
			r.N, r.Rate, r.FPS = 0, 0, 0
		case "memcached":
			if r.DurMs <= 0 {
				r.DurMs = 1000
			}
			if r.Rate <= 0 {
				r.Rate = 10000
			}
			r.N, r.FPS = 0, 0
		case "video":
			if r.FPS <= 0 {
				r.FPS = 120
			}
			r.N, r.DurMs, r.Rate = 0, 0, 0
		}
		r.Seed, r.VMs, r.SLOUs, r.Storms, r.CrossEvery, r.Schedules = 0, 0, 0, 0, 0, 0
		r.Scenario = ""
	case KindLB:
		if r.Scenario == "" {
			r.Scenario = "steady"
		}
		if !slices.Contains(exp.LBScenarios(), r.Scenario) {
			return uerr.New("scenario", r.Scenario, "unknown lb scenario",
				"valid: "+strings.Join(exp.LBScenarios(), ", "))
		}
		if r.VMs <= 0 {
			r.VMs = 4
		}
		if r.SLOUs <= 0 {
			r.SLOUs = 1000
		}
		if r.Seed == 0 {
			r.Seed = 42
		}
		r.Storms, r.DurMs, r.CrossEvery = 0, 0, 0
		r.Workload, r.N, r.Rate, r.FPS, r.Schedules = "", 0, 0, 0, 0
	case "":
		return uerr.New("kind", "", "missing request kind",
			"valid: density, storm, fleet, check, faultgrid, workload, lb")
	default:
		return uerr.New("kind", r.Kind, "unknown request kind",
			"valid: density, storm, fleet, check, faultgrid, workload, lb")
	}
	return nil
}

// canonFaults validates the fault-plane fields shared by several kinds.
func (r *Request) canonFaults() error {
	if r.Faults == "" {
		r.FaultSeed = 0
		return nil
	}
	if r.FaultSeed == 0 {
		r.FaultSeed = 1
	}
	if _, err := fault.ParseSpec(r.Faults, r.FaultSeed); err != nil {
		return uerr.New("faults", r.Faults, err.Error(), "")
	}
	return nil
}

// buildFaultSpec assembles the armed fault spec from the canonical
// fields (nil when no faults were requested), as the svtsim CLI does.
func (r *Request) buildFaultSpec() (*fault.Spec, error) {
	if r.Faults == "" {
		return nil, nil
	}
	return fault.ParseSpec(r.Faults, r.FaultSeed)
}

// parsedModes maps the canonical mode names back to hv.Mode values.
func (r *Request) parsedModes() []hv.Mode {
	out := make([]hv.Mode, len(r.Modes))
	for i, name := range r.Modes {
		m, err := hv.ParseMode(name)
		if err != nil {
			panic("server: non-canonical request: " + err.Error())
		}
		out[i] = m
	}
	return out
}

// Digest returns the content address of a canonical request: the
// SHA-256 of the schema version, the host cost model, and the canonical
// JSON encoding. Call Canonicalize first — digesting a non-canonical
// request would fracture the cache keyspace.
func (r *Request) Digest() string {
	p := host.DefaultParams()
	preimage := fmt.Sprintf("%s\nhostparams:%d,%d,%d,%d,%d,%g,%d\n",
		digestSchema, p.IPISelf, p.IPISMT, p.IPICrossCore, p.IPICrossNUMA,
		p.Quantum, p.SMTShare, p.RebalanceEvery)
	b, err := json.Marshal(r)
	if err != nil {
		panic("server: request not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(append([]byte(preimage), b...))
	return hex.EncodeToString(sum[:])
}

// Result is one completed experiment: its digest, kind, and the
// deterministic result lines (the same `key=value` stats lines the CLI
// prints). Encode's bytes are what the cache stores and what /result
// serves — byte-identical between a cold run and every later hit.
type Result struct {
	Digest string   `json:"digest"`
	Kind   string   `json:"kind"`
	Lines  []string `json:"lines"`
}

// Encode renders the canonical response body.
func (r *Result) Encode() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("server: result not marshalable: " + err.Error())
	}
	return append(b, '\n')
}
