package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"svtsim/internal/exp"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
)

// The fleet workload drives the fleet-scale experiments on one
// exp.Session with a 2-wide worker pool: density sweeps, load-balancer
// tables, migration-storm tables, the sharded FleetReplay, and snapshot
// capture/restore/clone of a warmed VM.

var fleetKinds = []string{"density", "lb", "storm", "replay", "snapshot"}

// replayDur is the simulated length of a replay cell.
const replayDur = 5 * sim.Millisecond

// fleetPlan: each block is every kind at every size level k = 2..8; the
// seed draws the load-balancer scenario, the storm size and the seeds,
// the snapshot VM's mode and length, and the order.
func fleetPlan(seed int64, blocks int) []cell {
	var plan []cell
	scenarios := exp.LBScenarios()
	u := offsets(seed, 14)
	for b := 0; b < blocks; b++ {
		rng := blockRand(seed, b)
		var cs []cell
		for _, kind := range fleetKinds {
			for lvl := 0; lvl < 7; lvl++ {
				c := cell{kind: kind, k: 2 + lvl}
				switch kind {
				case "lb":
					c.scenario = scenarios[rng.Intn(len(scenarios))]
					c.seed = 1 + rng.Int63n(1<<30)
				case "storm":
					c.storms = level(spread(u[lvl], b), 4, 17, 0, 1)
					c.seed = 1 + rng.Int63n(1<<30)
				case "replay":
					c.shards = 1 + (b+lvl)%2
				case "snapshot":
					c.mode = hv.AllModes()[rng.Intn(len(hv.AllModes()))]
					c.n = level(spread(u[7+lvl], b), 40, 120, lvl, 7)
				}
				cs = append(cs, c)
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		plan = append(plan, cs...)
	}
	return plan
}

func fleetSession() *exp.Session {
	es := exp.NewSession()
	es.SetParallelism(2)
	return es
}

func replaySpec(shards int) exp.FleetReplaySpec {
	spec := exp.DefaultFleetReplaySpec()
	spec.Dur = replayDur
	spec.Shards = shards
	return spec
}

// fleetReference runs the smallest cell of each kind once, and fixes the
// FleetReplay digest every replay cell must reproduce at either shard
// count.
func fleetReference(r *runner) {
	es := fleetSession()
	for i, c := range []cell{
		{kind: "density", k: 2}, {kind: "lb", k: 2, scenario: "steady", seed: 1},
		{kind: "storm", k: 2, storms: 4, seed: 1}, {kind: "replay", shards: 1},
		{kind: "replay", shards: 2}, {kind: "snapshot", mode: hv.ModeSWSVt, n: 40},
	} {
		c.idx = -1 - i
		r.guard(c, func() error {
			_, _, err := r.fleetCell(nil, es, c)
			return err
		})
	}
}

func fleetRun(r *runner, plan []cell) {
	es := fleetSession()
	r.replayDigest = exp.FleetReplay(replaySpec(1)).Digest // the single-heap reference
	r.serial(plan, func(t *track, c cell) error {
		root := t.begin("cell."+c.kind, c.idx)
		line, wall, err := r.fleetCell(t, es, c)
		t.end(root)
		if err != nil {
			return err
		}
		r.golden[c.idx] = c.String() + " " + line
		r.cellDone(wall)
		return nil
	})
}

// fleetCell runs one fleet cell and returns its simulated-result line and
// wall time. Allocation is measured around the cell as a whole.
func (r *runner) fleetCell(t *track, es *exp.Session, c cell) (string, time.Duration, error) {
	before := memSnap()
	line, wall, err := r.fleetCellBody(t, es, c)
	r.allocBytes += allocated(before, memSnap())
	return line, wall, err
}

func (r *runner) fleetCellBody(t *track, es *exp.Session, c cell) (string, time.Duration, error) {
	modes := exp.AllModes()
	var lines []string
	cnt := r.counts
	switch c.kind {
	case "density":
		var res []exp.DensityResult
		wall := t.timed("exp.density", c.idx, func() { res = es.DensitySweep(modes, c.k, 500) })
		for _, dr := range res {
			if len(dr.Points) != c.k {
				return "", 0, fmt.Errorf("mode %s: %d packing levels, want %d", dr.Mode, len(dr.Points), c.k)
			}
			for _, pt := range dr.Points {
				lines = append(lines, pt.StatsLine())
				cnt["host.migrations"] += float64(pt.Migrations)
				cnt["host.resched_ipis"] += float64(pt.ReschedIPIs)
				cnt["sim.events"] += float64(pt.Events)
			}
			lines = append(lines, dr.SummaryLine())
		}
		return digestLines(lines), wall, nil
	case "lb":
		var res []exp.LBResult
		wall := t.timed("exp.lb", c.idx, func() { res = es.LoadBalancerTable(modes, c.k, c.scenario, c.seed, 1000) })
		for _, lr := range res {
			if lr.Completed == 0 {
				return "", 0, fmt.Errorf("mode %s: no request completed", lr.Mode)
			}
			lines = append(lines, lr.StatsLine())
			cnt["netstack.segs"] += float64(lr.SegsSent)
			cnt["netstack.retransmits"] += float64(lr.Retransmits)
			cnt["host.migrations"] += float64(lr.GangMigrations)
			cnt["sim.events"] += float64(lr.Events)
		}
		return digestLines(lines), wall, nil
	case "storm":
		var res []exp.StormResult
		wall := t.timed("exp.storm", c.idx, func() { res = es.StormTable(modes, c.k, c.storms, c.seed) })
		for _, sr := range res {
			lines = append(lines, sr.StatsLine())
			cnt["host.migrations"] += float64(sr.GangMigrations)
			cnt["sim.events"] += float64(sr.Events)
		}
		return digestLines(lines), wall, nil
	case "replay":
		var res exp.FleetReplayResult
		wall := t.timed("exp.replay", c.idx, func() { res = exp.FleetReplay(replaySpec(c.shards)) })
		if r.replayDigest != 0 && res.Digest != r.replayDigest {
			return "", 0, fmt.Errorf("shards=%d digest %016x differs from the single-heap %016x", c.shards, res.Digest, r.replayDigest)
		}
		r.replayDigest = res.Digest
		r.replayEvents += res.Events
		r.replayWall += wall.Seconds()
		cnt["sim.events"] += float64(res.Events)
		return fmt.Sprintf("events=%d digest=%016x", res.Events, res.Digest), wall, nil
	case "snapshot":
		return r.snapshotCell(t, c)
	}
	return "", 0, fmt.Errorf("unknown fleet cell kind %q", c.kind)
}

// snapshotCell warms a netrr VM, captures it, restores the capture into
// a freshly built twin that ran a shorter workload, and clones it. The
// twin must then carry the source's state exactly. The two machines are
// the only ones fleet builds itself (the other cells build theirs inside
// exp), so their builds are fleet's setup_s samples.
func (r *runner) snapshotCell(t *track, c cell) (string, time.Duration, error) {
	var snap *snapshot.Snapshot
	src, _ := ioVM("netrr", c.mode, c.n, 0)
	src.after = func(m *machine.Machine, io *machine.IOStack) error {
		t.timed("snapshot.capture", c.idx, func() { snap = snapshot.Capture(m, io) })
		return nil
	}
	a, err := r.runVM(t, c.idx, src)
	if err != nil {
		return "", 0, err
	}
	twin, _ := ioVM("netrr", c.mode, c.n/2, 0)
	twin.after = func(m *machine.Machine, io *machine.IOStack) error {
		var err error
		t.timed("snapshot.restore", c.idx, func() { err = snapshot.Restore(m, io, snap) })
		if err != nil {
			return err
		}
		if got := snapshot.Capture(m, io).Digest(); got != snap.Digest() {
			return fmt.Errorf("restored twin digest %016x, want %016x", got, snap.Digest())
		}
		var clone *snapshot.Snapshot
		t.timed("snapshot.clone", c.idx, func() { clone = snap.Clone() })
		if clone.Digest() != snap.Digest() {
			return fmt.Errorf("clone digest %016x, want %016x", clone.Digest(), snap.Digest())
		}
		return nil
	}
	b, err := r.runVM(t, c.idx, twin)
	if err != nil {
		return "", 0, err
	}
	r.setups = append(r.setups, a.setup.Seconds(), b.setup.Seconds())
	return fmt.Sprintf("source[%s] twin[%s] snapshot=%016x bytes=%d", a.summary, b.summary, snap.Digest(), snap.Bytes()),
		a.wall + b.wall, nil
}

// digestLines folds a cell's deterministic result lines into one short
// golden entry.
func digestLines(lines []string) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("lines=%d digest=%016x", len(lines), h.Sum64())
}
