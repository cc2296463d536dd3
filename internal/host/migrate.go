package host

import (
	"fmt"

	"svtsim/internal/fault"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// A live gang migration is pause→capture→transfer→restore→resume: the
// VM is stopped for the whole window (pre-copy is a non-goal — the
// snapshot layer's canonical form is captured atomically at a quiescent
// boundary), so the sum of the phases is guest-visible downtime. Capture
// and restore scale with image size; transfer additionally scales with
// topological distance — moving a gang to the SMT sibling is a cache
// handoff, moving it across sockets drags the image over the
// interconnect. Every base cost exceeds the worst-case reschedule-IPI
// latency, so the downtime charge always drains the kick IPIs a
// migration sends.
const (
	// maxAttempts bounds the retry loop; attempt N failing with N ==
	// maxAttempts triggers the atomic rollback to the source placement.
	maxAttempts = 3
	// backoffBase is the delay charged after a failed attempt, doubled
	// each retry (backoffBase, 2×, 4×, ...).
	backoffBase = 20 * sim.Microsecond

	captureBase  = 15 * sim.Microsecond
	capturePerKB = 150 * sim.Nanosecond
	// transferPerKB is the per-KB wire cost at distance factor 1 (SMT
	// sibling); cross-core doubles it and cross-NUMA quadruples it.
	transferPerKB = 250 * sim.Nanosecond
	restoreBase   = 10 * sim.Microsecond
	restorePerKB  = 150 * sim.Nanosecond

	// breakerThreshold consecutive rollbacks open the VM's placement
	// breaker; while open, migration requests for that VM are skipped
	// at zero cost until breakerCooldown elapses and a half-open probe
	// is allowed.
	breakerThreshold = 3
	breakerCooldown  = 2 * sim.Millisecond
)

// transferFactor scales transferPerKB by how far the image travels: the
// maximum distance any thread of the gang moves.
func transferFactor(d Distance) sim.Time {
	switch d {
	case DistCore:
		return 2
	case DistNUMA:
		return 4
	}
	return 1
}

// MigrationResult is one MigrateGang outcome.
type MigrationResult struct {
	VM       int
	From, To []CtxID
	// Attempts is how many capture/transfer/restore attempts ran (0 when
	// the breaker skipped the migration).
	Attempts int
	// Completed: the gang now runs at To. RolledBack: every attempt
	// failed and the gang atomically kept its source placement.
	Completed  bool
	RolledBack bool
	// SkippedBreakerOpen: the VM's placement breaker was open; nothing
	// was attempted and Downtime is zero.
	SkippedBreakerOpen bool
	// Downtime is the guest-visible pause: successful phases, injected
	// delays, backoffs between retries, and (on rollback) the restore-
	// at-source charge.
	Downtime sim.Time
	Bytes    int
}

func (r MigrationResult) String() string {
	switch {
	case r.SkippedBreakerOpen:
		return fmt.Sprintf("vm%d migrate skipped (breaker open)", r.VM)
	case r.RolledBack:
		return fmt.Sprintf("vm%d migrate %v->%v rolled back after %d attempts (downtime %v)",
			r.VM, r.From, r.To, r.Attempts, r.Downtime)
	default:
		return fmt.Sprintf("vm%d migrate %v->%v ok in %d attempt(s) (downtime %v, %d bytes)",
			r.VM, r.From, r.To, r.Attempts, r.Downtime, r.Bytes)
	}
}

// placeBreaker returns the VM's placement breaker, creating it on first
// use. This lifts the SW-SVt channel's degradation breaker pattern to
// placements: a VM whose migrations keep rolling back stops being asked
// to move until the cooldown re-arms it.
func (s *Scheduler) placeBreaker(vm int) *fault.Breaker {
	if s.placeBreakers == nil {
		s.placeBreakers = make(map[int]*fault.Breaker)
	}
	b := s.placeBreakers[vm]
	if b == nil {
		b = fault.NewBreaker(s.h.Eng, breakerThreshold, breakerCooldown)
		s.placeBreakers[vm] = b
	}
	return b
}

// MigrateGang live-migrates a VM's thread gang from its current
// placement (a.Ctxs) to dst, which must name one destination context per
// gang thread. The gang is paused, its image captured, transferred at a
// distance-priced rate, and restored; each phase consults the fault
// plane (migrate/capture, migrate/transfer, migrate/restore) — a Drop
// fails the attempt, a Delay stretches the pause. Failed attempts retry
// with exponential backoff up to maxAttempts, after which the gang
// rolls back atomically to the source placement: load counts, the
// assignment, and the resident threads are exactly as before, only
// downtime was spent. extraFail forces the first extraFail attempts to
// fail regardless of the fault plane (the harness's deterministic
// mid-migration fault).
//
// MigrateGang never advances the engine clock itself: it returns the
// accumulated Downtime for the caller to charge (a machine-level caller
// charges the paused vCPU; the storm replay parks the VM's demand for
// the window). On success a.Ctxs/a.Place are updated in place and both
// placements' contexts are kicked with reschedule IPIs.
func (s *Scheduler) MigrateGang(a *Assignment, dst []CtxID, bytes, extraFail int) MigrationResult {
	h := s.h
	t := h.Topo
	res := MigrationResult{VM: a.VM, From: append([]CtxID(nil), a.Ctxs...), To: append([]CtxID(nil), dst...), Bytes: bytes}
	if len(dst) != len(a.Ctxs) {
		panic(fmt.Sprintf("host: MigrateGang(vm=%d): %d dst contexts for a %d-thread gang", a.VM, len(dst), len(a.Ctxs)))
	}

	br := s.placeBreaker(a.VM)
	if !br.Allow() {
		res.SkippedBreakerOpen = true
		s.gang.GangSkipped++
		s.traceMigrate(a.Ctxs[0], "migrate-skip", h.Eng.Now(), h.Eng.Now(), a.VM, 0)
		return res
	}

	// The farthest-moving thread sets the transfer distance.
	far := DistSelf
	for i := range a.Ctxs {
		if d := t.DistanceOf(a.Ctxs[i], dst[i]); d > far {
			far = d
		}
	}
	kb := sim.Time((bytes + 1023) / 1024)
	captureCost := captureBase + kb*capturePerKB
	transferCost := kb * transferPerKB * transferFactor(far)
	restoreCost := restoreBase + kb*restorePerKB

	start := h.Eng.Now()
	phases := []struct {
		site string
		cost sim.Time
	}{
		{fault.SiteMigrateCapture, captureCost},
		{fault.SiteMigrateTransfer, transferCost},
		{fault.SiteMigrateRestore, restoreCost},
	}

	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		failed := attempt <= extraFail
		for _, ph := range phases {
			res.Downtime += ph.cost
			out := h.Eng.Inject(ph.site)
			res.Downtime += out.Delay
			if out.Drop {
				failed = true
				break // phases after a dropped one never run this attempt
			}
		}
		if !failed {
			// Commit: move the load counts and the assignment, kick both
			// placements so their cores reschedule.
			for i, c := range a.Ctxs {
				if s.load[c] > 0 {
					s.load[c]--
				}
				s.load[dst[i]]++
			}
			old := a.Ctxs
			a.Ctxs = append([]CtxID(nil), dst...)
			if len(a.Ctxs) > 1 {
				a.Place = t.PlacementOf(a.Ctxs[0], a.Ctxs[1])
			}
			for _, c := range old {
				s.reschedIPIs++
				h.SendIPI(0, c, ports.VecIPI)
			}
			for _, c := range a.Ctxs {
				s.reschedIPIs++
				h.SendIPI(0, c, ports.VecIPI)
			}
			res.Completed = true
			br.Success()
			s.gang.GangMigrations++
			s.gang.MigrationDowntime += res.Downtime
			s.traceMigrate(a.Ctxs[0], "migrate", start, start+res.Downtime, a.VM, attempt)
			return res
		}
		if attempt < maxAttempts {
			res.Downtime += backoffBase << (attempt - 1)
			s.gang.GangRetries++
		}
	}

	// Rollback: restore the image at the source. Placement state was
	// never touched, so the rollback is atomic by construction; the only
	// residue is the downtime spent trying.
	res.Downtime += restoreCost
	res.RolledBack = true
	br.Failure()
	s.gang.GangRollbacks++
	s.gang.MigrationDowntime += res.Downtime
	s.traceMigrate(a.Ctxs[0], "migrate-rollback", start, start+res.Downtime, a.VM, res.Attempts)
	return res
}

func (s *Scheduler) traceMigrate(c CtxID, label string, start, end sim.Time, vm, attempts int) {
	h := s.h
	if h.tracer == nil {
		return
	}
	h.tracer.Span(h.ctxTracks[c], obs.KindMigrate, obs.LevelNone,
		h.tracer.Intern(label), start, end, uint64(vm), uint64(attempts))
}
