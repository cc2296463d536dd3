package exp

import (
	"context"
	"fmt"
	"sort"

	"svtsim/internal/host"
	"svtsim/internal/hv"
	"svtsim/internal/sim"
)

// MigrationStorm is the robustness version of Consolidation: k VMs are
// packed onto the session's topology and, while they run under
// contention, a seeded storm of live gang migrations moves them between
// cores — some forced to fail mid-flight, driving retries, backoff, and
// rollbacks. The experiment answers the paper-adjacent question the
// snapshot layer exists for: how much tail latency does placement churn
// cost each protocol, and does the recovery machinery keep the fleet
// converging when migrations misbehave?

// StormResult is one mode's outcome under a migration storm.
type StormResult struct {
	Mode   hv.Mode
	K      int
	Storms int
	Seed   int64

	Elapsed       sim.Time
	WorstP99Us    float64
	AggThroughput float64
	MeanSlowdown  float64

	host.GangTally

	// Events is the replay's engine dispatch count — byte-identical at
	// any pool width.
	Events uint64
}

// StatsLine renders the result as one deterministic line; two runs with
// the same parameters must produce byte-identical lines (the contract
// the storm determinism tests pin serial-vs-parallel).
func (r StormResult) StatsLine() string {
	return fmt.Sprintf("mode=%s k=%d storms=%d seed=%d elapsed=%v p99us=%.3f agg=%.3f slow=%.4f "+
		"migrations=%d rollbacks=%d retries=%d skipped=%d downtime=%v events=%d",
		r.Mode, r.K, r.Storms, r.Seed, r.Elapsed, r.WorstP99Us, r.AggThroughput, r.MeanSlowdown,
		r.GangMigrations, r.GangRollbacks, r.GangRetries, r.GangSkipped, r.MigrationDowntime, r.Events)
}

// BuildStormPlan derives a deterministic storm from a seed: storms
// events at quanta first..first+span-1, each targeting a VM in [0,k)
// with 0..fails-1 forced failures (>= 3 forces a rollback under the
// host's 3-attempt budget). Events are sorted by quantum then VM so the
// plan replays identically regardless of how it was built.
func BuildStormPlan(k, storms int, seed int64, first, span, fails int) *host.StormPlan {
	rng := sim.NewRand(seed)
	plan := &host.StormPlan{}
	for i := 0; i < storms; i++ {
		plan.Events = append(plan.Events, host.StormEvent{
			Quantum: uint64(first + rng.Intn(span)),
			VM:      rng.Intn(k),
			Fails:   rng.Intn(fails),
		})
	}
	sort.Slice(plan.Events, func(i, j int) bool {
		a, b := plan.Events[i], plan.Events[j]
		if a.Quantum != b.Quantum {
			return a.Quantum < b.Quantum
		}
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.Fails < b.Fails
	})
	return plan
}

// MigrationStorm packs k VMs in one mode and replays them under a
// seeded storm of storms live migrations spread over quanta 50..2049,
// each with 0..4 forced failures. The session's fault spec is armed on
// the host engine, so migrate/* and apic/ipi sites fire mid-storm.
func (s *Session) MigrationStorm(mode hv.Mode, k, storms int, seed int64) StormResult {
	f := s.densityFleet(mode, k, BuildStormPlan(k, storms, seed, 50, 2000, 5), s.faultSpec())
	pt, res := f.point(mode), f.res
	r := StormResult{
		Mode: mode, K: k, Storms: storms, Seed: seed,
		Elapsed:       res.Elapsed,
		WorstP99Us:    pt.WorstP99Us,
		AggThroughput: pt.AggThroughput,
		GangTally:     res.GangTally,
		Events:        res.Events,
	}
	var slow float64
	for _, v := range pt.VMs {
		slow += v.Slowdown
	}
	if len(pt.VMs) > 0 {
		r.MeanSlowdown = slow / float64(len(pt.VMs))
	}
	return r
}

// StormTable runs MigrationStorm for every mode on the session's worker
// pool, in mode order. Each cell builds its own host and storm plan, so
// the table is byte-identical to running the cells serially.
func (s *Session) StormTable(modes []hv.Mode, k, storms int, seed int64) []StormResult {
	out, _ := s.StormTableContext(context.Background(), modes, k, storms, seed, nil)
	return out
}

// StormTableContext is StormTable with cancellation checked before each
// mode's cell starts and progress reported in mode order.
func (s *Session) StormTableContext(ctx context.Context, modes []hv.Mode, k, storms int, seed int64, pr ProgressFunc) ([]StormResult, error) {
	return sweep(ctx, s, len(modes), pr, "storm",
		func(i int) string { return fmt.Sprintf("mode=%s", modes[i]) },
		func(i int) StormResult { return s.MigrationStorm(modes[i], k, storms, seed) })
}
