// Package fault implements a deterministic fault-injection plane for the
// simulator. A Plane registers with the sim engine as its FaultInjector
// and decides, at named sites, whether an action is dropped or delayed.
// All randomness derives from a single seed with an independent stream
// per site, so a failing run replays byte-identical from its seed — and
// interleaving changes in one component cannot perturb the fault pattern
// seen by another.
//
// The package also carries the recovery machinery the plane exercises: a
// circuit Breaker that degrades the SW-SVt fast path back to baseline
// trap/resume (see breaker.go). The ring watchdog whose
// exhaustion feeds it lives with its only user, the SW-SVt channel.
package fault

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// Named fault sites. Components consult the engine with one of these;
// unknown sites are legal (they simply never fire) but ParseSpec rejects
// them to catch typos in CLI specs.
const (
	// SiteSVtWakeup guards the mwait/poll wakeup of the SVt thread in
	// swsvt.Channel.ReflectAndWait: a fired Drop models a lost monitor
	// wakeup, a Delay models a late one.
	SiteSVtWakeup = "swsvt/wakeup"
	// SiteRingPush guards command-ring pushes (a stalled store-forward).
	SiteRingPush = "swsvt/ring-push"
	// SiteRingPop guards command-ring pops (a spurious empty pop).
	SiteRingPop = "swsvt/ring-pop"
	// SiteIRQ guards interrupt delivery in the ports' controller.
	SiteIRQ = "apic/irq"
	// SiteIPI guards IPI delivery (the SVT_BLOCKED kick path).
	SiteIPI = "apic/ipi"
	// SiteVirtioComplete guards virtio request completions.
	SiteVirtioComplete = "virtio/complete"
	// SiteBlkComplete guards disk I/O completions.
	SiteBlkComplete = "blk/complete"
	// SiteMigrateCapture guards the capture phase of a live gang
	// migration: a Drop fails the attempt (source state could not be
	// quiesced), a Delay stretches the pause window.
	SiteMigrateCapture = "migrate/capture"
	// SiteMigrateTransfer guards the distance-priced transfer phase.
	SiteMigrateTransfer = "migrate/transfer"
	// SiteMigrateRestore guards the restore phase at the destination; a
	// dropped restore forces a retry and, past the attempt budget, the
	// atomic rollback to the source placement.
	SiteMigrateRestore = "migrate/restore"
	// SiteNetSegment guards netstack segment transmission: a Drop loses
	// the segment on the wire (the sender's retransmission timer
	// recovers it), a Delay defers its delivery. Per-flow streams fall
	// out of the plane's per-site seeding plus the deterministic consult
	// order of the flows sharing the site.
	SiteNetSegment = "net/segment"
)

// Sites lists every known site, sorted.
func Sites() []string {
	s := []string{
		SiteSVtWakeup, SiteRingPush, SiteRingPop,
		SiteIRQ, SiteIPI, SiteVirtioComplete, SiteBlkComplete,
		SiteMigrateCapture, SiteMigrateTransfer, SiteMigrateRestore,
		SiteNetSegment,
	}
	sort.Strings(s)
	return s
}

func knownSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// SiteConfig describes when and how one site misbehaves. Either Rate
// (probabilistic) or Every (deterministic schedule) selects consults to
// fault; After skips the first consults and Limit caps total fires, so a
// scheduled config like {Every: 1, After: 10, Limit: 3} faults exactly
// consults 11, 12, 13.
type SiteConfig struct {
	Site string
	// Rate is the per-consult fault probability (0..1). Ignored when
	// Every is set.
	Rate float64
	// Every, when > 0, fires deterministically on every Every-th
	// eligible consult without touching the RNG.
	Every uint64
	// After skips the first After consults entirely.
	After uint64
	// Limit caps the number of fires; 0 means unlimited.
	Limit uint64
	// Drop loses the guarded action; Delay defers it. Both may be set.
	Drop  bool
	Delay sim.Time
	// Jitter adds a uniform random extra delay in [0, Jitter) to every
	// fired fault.
	Jitter sim.Time
}

type siteState struct {
	cfg             SiteConfig
	rng             *rand.Rand
	consults, fires uint64
	obsLabel        obs.Label
}

// Plane is the fault injector. Construct with NewPlane, configure sites
// with Add, and it decides outcomes as the engine consults it.
type Plane struct {
	eng   *sim.Engine
	seed  int64
	sites map[string]*siteState
	fires obs.Counter

	obsT     *obs.Tracer
	obsTrack int
}

// SetObs attaches the observability tracer (nil detaches): every fired
// fault becomes an instant on track (the devices track, normally).
func (p *Plane) SetObs(t *obs.Tracer, track int) {
	p.obsT = t
	p.obsTrack = track
	for name, st := range p.sites {
		st.obsLabel = t.Intern(name)
	}
}

// NewPlane builds a plane over the engine's virtual clock and registers
// it as the engine's fault injector. seed fully determines every outcome
// the plane will ever produce (given a deterministic simulation).
func NewPlane(eng *sim.Engine, seed int64) *Plane {
	p := &Plane{eng: eng, seed: seed, sites: make(map[string]*siteState)}
	eng.SetFaults(p)
	return p
}

// Add arms a site. The site's RNG stream is derived from the plane seed
// and the site name alone, so configuration order never changes
// outcomes. Re-adding a site replaces its config and resets its stream.
func (p *Plane) Add(cfg SiteConfig) {
	h := fnv.New64a()
	h.Write([]byte(cfg.Site))
	st := &siteState{
		cfg: cfg,
		rng: sim.NewRand(p.seed ^ int64(h.Sum64())),
	}
	if p.obsT != nil {
		st.obsLabel = p.obsT.Intern(cfg.Site)
	}
	p.sites[cfg.Site] = st
}

// InjectFault implements sim.FaultInjector.
func (p *Plane) InjectFault(site string) sim.FaultOutcome {
	st := p.sites[site]
	if st == nil {
		return sim.FaultOutcome{}
	}
	st.consults++
	cfg := st.cfg
	if st.consults <= cfg.After {
		return sim.FaultOutcome{}
	}
	if cfg.Limit > 0 && st.fires >= cfg.Limit {
		return sim.FaultOutcome{}
	}
	fire := false
	switch {
	case cfg.Every > 0:
		fire = (st.consults-cfg.After-1)%cfg.Every == 0
	case cfg.Rate > 0:
		fire = st.rng.Float64() < cfg.Rate
	}
	if !fire {
		return sim.FaultOutcome{}
	}
	out := sim.FaultOutcome{Drop: cfg.Drop, Delay: cfg.Delay}
	if cfg.Jitter > 0 {
		out.Delay += sim.Time(st.rng.Int63n(int64(cfg.Jitter)))
	}
	if !out.Faulty() {
		// A config with neither Drop nor Delay "fires" as a no-op;
		// count the consult but record nothing.
		return out
	}
	st.fires++
	p.fires.Inc()
	if p.obsT != nil {
		drop := uint64(0)
		if out.Drop {
			drop = 1
		}
		p.obsT.Instant(p.obsTrack, obs.KindFault, obs.LevelNone, st.obsLabel,
			p.eng.Now(), drop, uint64(out.Delay))
	}
	return out
}

// FiresCounter exposes the live fire tally for metric registration.
func (p *Plane) FiresCounter() *obs.Counter { return &p.fires }
