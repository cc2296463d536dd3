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
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
	KindDensity  = "density"  // fleet consolidation sweep (exp.DensitySweep)
	KindStorm    = "storm"    // migration storm table (exp.StormTable)
	KindFleet    = "fleet"    // fleet-scale engine replay (exp.FleetReplay)
	KindCheck    = "check"    // differential cross-mode check (internal/check)
	KindWorkload = "workload" // one single-machine figure workload per mode
	KindLB       = "lb"       // load-balancer scenario table (exp.LoadBalancerTable)
)

// workloadNames lists the workloads KindWorkload accepts.
var workloadNames = []string{"cpuid", "netrr", "stream", "diskrd", "diskwr", "memcached", "tpcc", "video"}

// WorkloadNames returns the workloads KindWorkload accepts, in the
// paper's figure order.
func WorkloadNames() []string { return slices.Clone(workloadNames) }

// Request is one experiment submission. The JSON shape doubles as the
// canonical digest preimage: Canonicalize validates the fields and
// rebuilds the request from only what its kind consumes, defaults
// filled, so two requests that mean the same experiment digest
// identically no matter how sparsely they were written.
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

	// Fault plane (workload, density, storm, lb).
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

// Canonicalize validates the request and replaces it with its canonical
// form: a fresh request holding the kind, the canonical topology, port
// and shard count, and the fields the kind reads with every default
// filled. A field the kind ignores is zero by construction, so requests
// that mean the same experiment digest identically however sparsely
// they were written. All errors are structured *uerr.E values, which the
// HTTP layer returns as 400 bodies.
func (r *Request) Canonicalize() error {
	topo, err := host.ParseTopology(cmp.Or(r.Topology, host.DefaultTopology.String()))
	if err != nil {
		return err
	}
	var modes []string
	if len(r.Modes) == 0 {
		for _, m := range hv.AllModes() {
			modes = append(modes, m.String())
		}
	}
	for _, name := range r.Modes {
		m, err := hv.ParseMode(name)
		if err != nil {
			return err
		}
		modes = append(modes, m.String())
	}
	p, err := ports.Parse(r.Port)
	if err != nil {
		return err
	}
	// A malformed fault spec is rejected on every kind, even the ones
	// that run no fault plane.
	faultSeed := int64(0)
	if r.Faults != "" {
		faultSeed = cmp.Or(r.FaultSeed, 1)
		if _, err := fault.ParseSpec(r.Faults, faultSeed); err != nil {
			return uerr.New("faults", r.Faults, err.Error(), "")
		}
	}

	// The host has one engine, so shards selects nothing. Pinning it to
	// 1 keeps "shards":1 in every preimage: digests minted when it chose
	// an engine shard count still address the same results. The default
	// port's canonical spelling is "": requests minted before the ports
	// layer existed carried no port field, and their digests must keep
	// addressing the same cached results forever.
	c := Request{Kind: r.Kind, Topology: topo.String(), Shards: 1, Port: p.Name()}
	if c.Port == ports.DefaultName {
		c.Port = ""
	}
	// The kinds that run nested machines read the modes, the fault
	// plane and the trace flag.
	machineFields := func() {
		c.Modes, c.Faults, c.FaultSeed, c.Trace = modes, r.Faults, faultSeed, r.Trace
	}
	switch r.Kind {
	case KindDensity:
		machineFields()
		c.VMs = positiveOr(r.VMs, topo.Contexts())
		c.SLOUs = positiveOr(r.SLOUs, 500)
	case KindStorm:
		machineFields()
		c.VMs = positiveOr(r.VMs, 8)
		c.Storms = positiveOr(r.Storms, 12)
		c.Seed = cmp.Or(r.Seed, 42)
	case KindFleet:
		// The replay is mode-free: pure engine and IPIs.
		c.DurMs = positiveOr(r.DurMs, 20)
		c.CrossEvery = positiveOr(r.CrossEvery, 64)
	case KindCheck:
		// The oracle always runs the full mode set on its own machines,
		// whatever the session topology.
		c.Topology = host.DefaultTopology.String()
		c.Schedules = positiveOr(r.Schedules, 25)
		c.Seed = cmp.Or(r.Seed, 1)
	case KindWorkload:
		// Single-machine workloads never read the session topology.
		machineFields()
		c.Topology = host.DefaultTopology.String()
		c.Workload = cmp.Or(r.Workload, "cpuid")
		switch c.Workload {
		case "cpuid", "netrr", "diskrd", "diskwr":
			c.N = positiveOr(r.N, 500)
		case "stream", "tpcc":
			c.DurMs = positiveOr(r.DurMs, 1000)
		case "memcached":
			c.DurMs = positiveOr(r.DurMs, 1000)
			c.Rate = positiveOr(r.Rate, 10000)
		case "video":
			c.FPS = positiveOr(r.FPS, 120)
		default:
			return uerr.New("workload", r.Workload, "unknown workload",
				"valid: "+strings.Join(workloadNames, ", "))
		}
	case KindLB:
		machineFields()
		c.Scenario = cmp.Or(r.Scenario, "steady")
		if !slices.Contains(exp.LBScenarios(), c.Scenario) {
			return uerr.New("scenario", r.Scenario, "unknown lb scenario",
				"valid: "+strings.Join(exp.LBScenarios(), ", "))
		}
		c.VMs = positiveOr(r.VMs, 4)
		c.SLOUs = positiveOr(r.SLOUs, 1000)
		c.Seed = cmp.Or(r.Seed, 42)
	case "":
		return uerr.New("kind", "", "missing request kind",
			"valid: density, storm, fleet, check, workload, lb")
	default:
		return uerr.New("kind", r.Kind, "unknown request kind",
			"valid: density, storm, fleet, check, workload, lb")
	}
	*r = c
	return nil
}

// positiveOr returns v, or def when v is not positive.
func positiveOr[T int | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
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
	preimage := digestSchema + "\n" + host.Fingerprint + "\n"
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
