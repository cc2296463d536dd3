package exp

import (
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
)

// TestMigrationStormDeterministicAcrossPool: the storm table built on a
// serial pool is byte-identical (per StatsLine) to the same table on a
// wide pool — the CI smoke job's contract.
func TestMigrationStormDeterministicAcrossPool(t *testing.T) {
	run := func(workers int) []string {
		s := NewSession()
		s.SetParallelism(workers)
		var lines []string
		for _, r := range s.StormTable(hv.AllModes(), 6, 12, 42) {
			lines = append(lines, r.StatsLine())
		}
		return lines
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Errorf("row %d diverges across pool widths:\nserial: %s\nwide:   %s", i, serial[i], wide[i])
		}
	}
	// And the storm actually stormed somewhere.
	any := false
	for _, line := range serial {
		if !strings.Contains(line, "migrations=0 ") {
			any = true
		}
	}
	if !any {
		t.Fatalf("no storm event completed a migration in any mode:\n%s", strings.Join(serial, "\n"))
	}
}

// TestMigrationStormZeroEventsIsQuiet is the exp-level zero-fault
// golden: with the storm machinery enabled but no events firing, the
// consolidation outcome is bit-identical regardless of the storm seed —
// i.e. identical to a run with migrations disabled.
func TestMigrationStormZeroEventsIsQuiet(t *testing.T) {
	s := NewSession()
	a := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 42)
	b := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 99)
	if a.GangMigrations != 0 || a.GangRollbacks != 0 || a.GangRetries != 0 || a.GangSkipped != 0 || a.MigrationDowntime != 0 {
		t.Fatalf("zero-event storm produced migration activity: %+v", a)
	}
	if a.Elapsed != b.Elapsed || a.WorstP99Us != b.WorstP99Us ||
		a.AggThroughput != b.AggThroughput || a.MeanSlowdown != b.MeanSlowdown {
		t.Fatalf("zero-event storms diverge by seed:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMigrationStormSlowsTheFleet: a real storm costs the fleet time
// relative to the quiet consolidation of the same VMs.
func TestMigrationStormSlowsTheFleet(t *testing.T) {
	s := NewSession()
	quiet := s.MigrationStorm(hv.ModeSWSVt, 6, 0, 42)
	stormy := s.MigrationStorm(hv.ModeSWSVt, 6, 16, 42)
	if stormy.GangMigrations == 0 {
		t.Skip("no migration found a destination; nothing to compare")
	}
	if stormy.Elapsed < quiet.Elapsed {
		t.Errorf("storm finished earlier than quiet run: %v < %v", stormy.Elapsed, quiet.Elapsed)
	}
	if stormy.MigrationDowntime == 0 {
		t.Error("completed migrations reported zero downtime")
	}
}

// TestMigrationStormArmedFaultsFire: a session fault spec is armed on
// the storm's host engine, so the migrate/* sites fire mid-migration:
// a 60% transfer drop adds retries or rollbacks to the same storm run
// unarmed, and the armed table is the same at any pool width.
func TestMigrationStormArmedFaultsFire(t *testing.T) {
	spec := &fault.Spec{Seed: 11, Sites: []fault.SiteConfig{
		{Site: fault.SiteMigrateTransfer, Rate: 0.6, Drop: true},
	}}
	modes := []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt}
	table := func(workers int, spec *fault.Spec) []StormResult {
		s := NewSession()
		s.SetParallelism(workers)
		s.SetFaults(spec)
		return s.StormTable(modes, 6, 16, 7)
	}
	quiet, armed, wide := table(1, nil), table(1, spec), table(8, spec)
	for i := range modes {
		q, a := quiet[i], armed[i]
		if a.GangRetries+a.GangRollbacks <= q.GangRetries+q.GangRollbacks {
			t.Errorf("%s: armed transfer drops added no retries or rollbacks: armed %s, quiet %s",
				modes[i], a.StatsLine(), q.StatsLine())
		}
		if got := wide[i].StatsLine(); got != a.StatsLine() {
			t.Errorf("%s: armed row diverges across pool widths:\n%s\nvs\n%s", modes[i], a.StatsLine(), got)
		}
	}
}

// TestPhase1CacheReuse: density fleets and load-balancer cells share
// the session's phase-1 memo. Across repeated fleets it serves most VMs
// from memoized runs instead of cold simulations, and a memo-served
// result is bit-identical to a fresh session's.
func TestPhase1CacheReuse(t *testing.T) {
	const k = 8
	cases := []struct {
		name    string
		lookups uint64
		// warm drives the earlier fleets; last is the final call, made
		// once on the warmed session and once on a fresh one.
		warm    func(s *Session)
		last    func(s *Session) any
		classes []string
		sized   bool // whether runs carry a migration-image size
	}{
		{"density", k * (k + 1) / 2, func(s *Session) {
			for n := 1; n < k; n++ {
				s.Consolidation(hv.ModeSWSVt, n)
			}
		}, func(s *Session) any { return s.Consolidation(hv.ModeSWSVt, k) },
			[]string{"cpuid", "netrr", "memcached"}, true},
		{"lb", 2 * k, func(s *Session) {
			s.LoadBalancer(hv.ModeSWSVt, k, "steady", 42, 1000)
		}, func(s *Session) any { return s.LoadBalancer(hv.ModeSWSVt, k, "storm", 42, 1000) },
			[]string{"lb"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			s.SetParallelism(1) // sims/reuses are exact only under a serial pool
			tc.warm(s)
			cached := tc.last(s)
			memo := s.memo
			if total := memo.sims + memo.reuses; total != tc.lookups {
				t.Fatalf("memo saw %d lookups, want %d", total, tc.lookups)
			}
			if memo.reuses == 0 {
				t.Fatal("never reused a memoized run")
			}
			if cold := tc.last(NewSession()); !reflect.DeepEqual(cold, cached) {
				t.Fatalf("memo-served result diverges from a fresh session's:\n%+v\nvs\n%+v", cached, cold)
			}
			for _, class := range tc.classes {
				found := false
				for key, r := range memo.m {
					if key.class == class {
						found = true
						if sized := r.imageBytes > 0; sized != tc.sized {
							t.Errorf("%s run has imageBytes %d, want sized=%v", class, r.imageBytes, tc.sized)
						}
					}
				}
				if !found {
					t.Errorf("no %s run memoized", class)
				}
			}
		})
	}
}

// TestPhase1MemoTransparent: one session running density, storm and
// load-balancer experiments back to back, all served by one phase-1
// memo across modes and calls, reports exactly what fresh sessions
// report running one mode each, and simulates every distinct VM once.
func TestPhase1MemoTransparent(t *testing.T) {
	fresh := func() *Session {
		s := NewSession()
		if err := s.SetTopology(testTopo2x2x2()); err != nil {
			t.Fatal(err)
		}
		s.SetParallelism(1) // sims are exact only under a serial pool
		return s
	}
	steps := []struct {
		name string
		run  func(s *Session, modes []hv.Mode) any
	}{
		{"density", func(s *Session, modes []hv.Mode) any { return s.DensitySweep(modes, 4, 500) }},
		{"storm", func(s *Session, modes []hv.Mode) any { return s.StormTable(modes, 4, 6, 42) }},
		{"lb steady", func(s *Session, modes []hv.Mode) any { return s.LoadBalancerTable(modes, 3, "steady", 42, 1000) }},
		{"lb storm", func(s *Session, modes []hv.Mode) any { return s.LoadBalancerTable(modes, 3, "storm", 42, 1000) }},
	}
	s := fresh()
	for _, st := range steps {
		got := st.run(s, AllModes())
		want := reflect.MakeSlice(reflect.TypeOf(got), 0, 0)
		for _, m := range AllModes() {
			want = reflect.AppendSlice(want, reflect.ValueOf(st.run(fresh(), []hv.Mode{m})))
		}
		if !reflect.DeepEqual(got, want.Interface()) {
			t.Errorf("%s on a shared session diverges from fresh sessions:\n%+v\nvs\n%+v", st.name, got, want)
		}
	}
	if s.memo.sims != uint64(len(s.memo.m)) {
		t.Errorf("memo simulated %d runs for %d distinct keys", s.memo.sims, len(s.memo.m))
	}
	if s.memo.reuses == 0 {
		t.Error("no call reused another's phase-1 run")
	}
}

// TestSetMemoSharesRuns: sessions sharing one memo simulate each VM
// once between them, and a session served entirely from another's runs
// reports what a fresh session reports.
func TestSetMemoSharesRuns(t *testing.T) {
	const mode, k = hv.ModeSWSVt, 4
	shared := new(Memo)
	first := NewSession()
	first.SetParallelism(1) // sims are exact only under a serial pool
	first.SetMemo(shared)
	first.Consolidation(mode, k)
	sims := shared.sims
	second := NewSession()
	second.SetParallelism(1)
	second.SetMemo(shared)
	got := second.Consolidation(mode, k)
	if shared.sims != sims {
		t.Errorf("the second session simulated %d VMs its memo already held", shared.sims-sims)
	}
	if want := NewSession().Consolidation(mode, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo-served fleet diverges from a fresh session's:\n%+v\nvs\n%+v", got, want)
	}
}

// TestPhase1MemoDroppedBySetters: SetFaults, SetPort and SetObs change
// what a phase-1 machine is built from, so each drops the memo, a shared
// one too: a run
// after the setter matches a fresh session configured the same way,
// never the memoized runs of the old configuration.
func TestPhase1MemoDroppedBySetters(t *testing.T) {
	armlike, err := ports.Parse("armlike")
	if err != nil {
		t.Fatal(err)
	}
	const mode, k = hv.ModeSWSVt, 3
	setters := []struct {
		name string
		set  func(s *Session)
	}{
		{"SetFaults", func(s *Session) {
			s.SetFaults(&fault.Spec{Seed: 3, Sites: []fault.SiteConfig{
				{Site: fault.SiteSVtWakeup, Rate: 0.05, Drop: true},
			}})
		}},
		{"SetPort", func(s *Session) { s.SetPort(armlike) }},
		{"SetObs", func(s *Session) { s.SetObs(&obs.Options{}) }},
	}
	for _, st := range setters {
		t.Run(st.name, func(t *testing.T) {
			s := NewSession()
			shared := new(Memo)
			s.SetMemo(shared)
			before := s.Consolidation(mode, k)
			st.set(s)
			got := s.Consolidation(mode, k)
			if s.memo == shared {
				t.Errorf("%s kept the shared memo", st.name)
			}
			ref := NewSession()
			st.set(ref)
			if want := ref.Consolidation(mode, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("run after %s diverges from a fresh session's:\n%+v\nvs\n%+v", st.name, got, want)
			}
			switch {
			case st.name == "SetObs" && s.LastObs() == nil:
				t.Error("no phase-1 machine ran under the armed plane")
			case st.name != "SetObs" && reflect.DeepEqual(got, before):
				t.Errorf("%s left the fleet unchanged; the test cannot tell a stale memo", st.name)
			}
		})
	}
}
