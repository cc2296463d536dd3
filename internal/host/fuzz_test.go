package host

import (
	"reflect"
	"sort"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/sim"
)

// FuzzReplayStorm admits 1–8 VMs as 1- or 2-thread gangs on a host of
// at most 2x2x2, gives each a fuzzer-chosen demand, and replays them
// under an optional storm plan and an optional migrate/* fault plane.
// Every replay must finish before the safety valve, keep each context's
// busy time within the elapsed time, log exactly one record (with its
// downtime) per migration outcome, and replay bit-identically on a
// fresh host.
//
// Input layout: data[0] picks the topology, data[1] the VM count and
// whether a storm plan and a fault plane are armed, data[2..3] the
// fault sites and seed, then four bytes per VM (shape, Total, Busy,
// HelperFrac), then three bytes per storm event (quantum, VM, fails).
func FuzzReplayStorm(f *testing.F) {
	f.Add([]byte{0x07, 0x1b, 0x07, 0x09, 1, 40, 128, 30, 0, 60, 255, 0, 3, 20, 10, 200, 2, 0, 0, 4, 1, 3, 6, 0, 1})
	f.Add([]byte{0x00, 0x00, 0, 0, 0, 10, 0, 0})
	f.Add([]byte{0x05, 0x0f, 0, 0, 1, 90, 200, 255, 2, 30, 100, 0, 1, 8, 50, 0, 0, 12, 1, 4, 2, 0, 3})
	f.Add([]byte{0x03, 0x17, 0x3a, 0x42, 3, 70, 90, 10, 1, 70, 90, 10, 2, 5, 1, 1, 0, 1, 0, 1, 0, 3, 2, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		topo := Topology{
			Sockets:        1 + int(data[0]&1),
			CoresPerSocket: 1 + int(data[0]>>1&1),
			ThreadsPerCore: 1 + int(data[0]>>2&1),
		}
		if topo.Contexts() < 2 {
			topo.ThreadsPerCore = 2 // a host has at least two contexts
		}
		nvm := 1 + int(data[1]&7)
		storm := data[1]&8 != 0
		faulty := data[1]&16 != 0
		sites, seed := data[2], int64(data[3])
		data = data[4:]
		if len(data) < 4*nvm {
			return
		}
		vms, events := data[:4*nvm], data[4*nvm:]

		var plan *StormPlan
		if storm {
			plan = &StormPlan{}
			for ; len(events) >= 3; events = events[3:] {
				plan.Events = append(plan.Events, StormEvent{
					Quantum: 1 + uint64(events[0]%64),
					VM:      int(events[1]) % (nvm + 1), // nvm itself names no VM
					Fails:   int(events[2] % 5),
				})
			}
			sort.SliceStable(plan.Events, func(i, j int) bool {
				return plan.Events[i].Quantum < plan.Events[j].Quantum
			})
		}

		var spec *fault.Spec
		if faulty {
			spec = &fault.Spec{Seed: seed}
			for i, site := range []string{fault.SiteMigrateCapture, fault.SiteMigrateTransfer, fault.SiteMigrateRestore} {
				if sites>>i&1 == 0 {
					continue
				}
				cfg := fault.SiteConfig{Site: site, Rate: float64(1+sites>>6) / 4}
				if sites>>(3+i)&1 != 0 {
					cfg.Drop = true
				} else {
					cfg.Delay = 5 * sim.Microsecond
				}
				spec.Sites = append(spec.Sites, cfg)
			}
		}

		run := func() ReplayResult {
			h, err := New(topo, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec.Build(h.Eng)
			demands := make([]Demand, nvm)
			for i := range demands {
				b := vms[4*i : 4*i+4]
				nthreads := 1 + int(b[0]&1)
				total := sim.Time(1+int(b[1])) * 20 * sim.Microsecond
				a := h.Sched.Admit(i, nthreads)
				demands[i] = Demand{
					Ctxs:       a.Ctxs,
					Total:      total,
					Busy:       total * sim.Time(b[2]) / 256,
					HelperPoll: b[0]&2 != 0,
					HelperFrac: float64(b[3]) / 255,
					ImageBytes: int(b[0]>>2) << 12,
				}
			}
			return h.Sched.ReplayStorm(demands, plan)
		}

		res := run()
		if limit := maxQuanta * quantum; res.Elapsed >= limit {
			t.Fatalf("replay ran to its %v safety valve", limit)
		}
		for c, busy := range res.CtxBusy {
			if busy < 0 || busy > res.Elapsed {
				t.Fatalf("ctx%d busy %v outside [0, %v]", c, busy, res.Elapsed)
			}
		}
		for core, u := range res.CoreUtil {
			if u < 0 || u > 1 {
				t.Fatalf("core%d utilization %v outside [0, 1]", core, u)
			}
		}
		if n, want := uint64(len(res.StormLog)), res.GangMigrations+res.GangRollbacks+res.GangSkipped; n != want {
			t.Fatalf("%d storm records for %d migrations + %d rollbacks + %d skips",
				n, res.GangMigrations, res.GangRollbacks, res.GangSkipped)
		}
		var down sim.Time
		for _, r := range res.StormLog {
			down += r.Downtime
		}
		if down != res.MigrationDowntime {
			t.Fatalf("storm records sum to %v of downtime, tallies say %v", down, res.MigrationDowntime)
		}
		if again := run(); !reflect.DeepEqual(res, again) {
			t.Fatalf("replay on a fresh host diverged:\n%+v\n%+v", res, again)
		}
	})
}
