package exp

import (
	"strings"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/obs"
)

// lbLines runs the LB sweep used by the determinism goldens: every
// scenario for two modes on the 2x2x2 test topology, rendered as
// StatsLines.
func lbLines(t *testing.T, workers int) []string {
	t.Helper()
	s := NewSession()
	if err := s.SetTopology(testTopo2x2x2()); err != nil {
		t.Fatal(err)
	}
	s.SetParallelism(workers)
	var lines []string
	for _, sc := range LBScenarios() {
		for _, r := range s.LoadBalancerTable([]hv.Mode{hv.ModeSWSVt, hv.ModeBaseline}, 3, sc, 42, 1000) {
			lines = append(lines, r.StatsLine())
		}
	}
	return lines
}

// TestLoadBalancerDeterministicAcrossPool is the ISSUE's golden: the
// full lb scenario sweep — netstack flows, traffic schedules, storm
// pauses, fault drops — renders byte-identical StatsLines on a serial
// worker pool and a wide one.
func TestLoadBalancerDeterministicAcrossPool(t *testing.T) {
	serial := lbLines(t, 1)
	wide := lbLines(t, 8)
	if len(serial) != len(wide) {
		t.Fatalf("row count differs: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Errorf("row %d diverges across pool widths:\nserial: %s\nwide:   %s", i, serial[i], wide[i])
		}
	}
}

// TestLoadBalancerScenarioShapes: each scenario leaves its fingerprint
// on the result — overload sheds load and blows the tail, bursts hurt
// p99 more than steady, storms pause backends, faults drop segments.
func TestLoadBalancerScenarioShapes(t *testing.T) {
	s := NewSession()
	if err := s.SetTopology(testTopo2x2x2()); err != nil {
		t.Fatal(err)
	}
	res := map[string]LBResult{}
	for _, sc := range LBScenarios() {
		res[sc] = s.LoadBalancer(hv.ModeSWSVt, 3, sc, 42, 1000)
	}
	for sc, r := range res {
		if r.Offered == 0 || r.Completed == 0 {
			t.Fatalf("%s: no traffic flowed: %s", sc, r.StatsLine())
		}
		if r.P50Us > r.P99Us || r.P99Us > r.P999Us {
			t.Errorf("%s: percentiles out of order: %s", sc, r.StatsLine())
		}
		if r.SegsSent == 0 || r.Events == 0 {
			t.Errorf("%s: transport/engine counters empty: %s", sc, r.StatsLine())
		}
		if r.Windows == 0 {
			t.Errorf("%s: no violation windows tracked: %s", sc, r.StatsLine())
		}
	}
	steady, over, burst := res["steady"], res["overload"], res["burst"]
	if over.Completed >= over.Offered {
		t.Errorf("overload completed everything it was offered: %s", over.StatsLine())
	}
	if over.P99Us <= steady.P99Us {
		t.Errorf("overload p99 (%.1fus) not above steady (%.1fus)", over.P99Us, steady.P99Us)
	}
	if over.ViolWindows <= steady.ViolWindows {
		t.Errorf("overload violated fewer SLO windows (%d) than steady (%d)",
			over.ViolWindows, steady.ViolWindows)
	}
	if burst.P99Us <= steady.P99Us {
		t.Errorf("burst p99 (%.1fus) not above steady (%.1fus)", burst.P99Us, steady.P99Us)
	}
	if storm := res["storm"]; storm.GangMigrations == 0 || storm.Downtime == 0 {
		t.Errorf("storm scenario moved nothing: %s", storm.StatsLine())
	}
	if faults := res["faults"]; faults.SegDrops == 0 {
		t.Errorf("faults scenario dropped no segments: %s", faults.StatsLine())
	}
}

// TestLoadBalancerModesDiffer: the protocol under test matters — the
// same scenario priced under SW-SVt and vmresume-trap baselines yields
// different service distributions, hence different tails.
func TestLoadBalancerModesDiffer(t *testing.T) {
	s := NewSession()
	if err := s.SetTopology(testTopo2x2x2()); err != nil {
		t.Fatal(err)
	}
	rs := s.LoadBalancerTable([]hv.Mode{hv.ModeSWSVt, hv.ModeBaseline}, 3, "steady", 42, 1000)
	if rs[0].Mode == rs[1].Mode {
		t.Fatalf("table did not fan out modes: %+v", rs)
	}
	if rs[0].P50Us == rs[1].P50Us && rs[0].GoodputRPS == rs[1].GoodputRPS {
		t.Errorf("modes indistinguishable:\n%s\n%s", rs[0].StatsLine(), rs[1].StatsLine())
	}
}

// TestLoadBalancerObsTransparent: arming the observability plane
// changes no reported number, and the trace carries the per-request
// net-flow spans plus live queue-depth gauges.
func TestLoadBalancerObsTransparent(t *testing.T) {
	run := func(armed bool) (LBResult, *obs.Plane) {
		s := NewSession()
		if err := s.SetTopology(testTopo2x2x2()); err != nil {
			t.Fatal(err)
		}
		if armed {
			s.SetObs(&obs.Options{})
		}
		r := s.LoadBalancer(hv.ModeSWSVt, 3, "steady", 42, 1000)
		return r, s.LastObs()
	}
	plain, _ := run(false)
	traced, plane := run(true)
	if plain.StatsLine() != traced.StatsLine() {
		t.Errorf("observation perturbed the run:\nplain:  %s\ntraced: %s",
			plain.StatsLine(), traced.StatsLine())
	}
	if plane == nil {
		t.Fatal("armed session kept no obs plane")
	}
	flows := 0
	for i := 0; i < plane.Tracer.Tracks(); i++ {
		plane.Tracer.Ring(i).Do(func(ev obs.Event) {
			if ev.Kind == obs.KindNetFlow {
				flows++
				if ev.Dur <= 0 {
					t.Fatalf("net-flow span with non-positive duration: %+v", ev)
				}
			}
		})
	}
	if uint64(flows) != traced.Completed {
		t.Errorf("trace has %d net-flow spans, result completed %d", flows, traced.Completed)
	}
	found := false
	for _, name := range plane.Metrics.Names() {
		if strings.HasPrefix(name, "lb.qdepth.") {
			found = true
		}
	}
	if !found {
		t.Error("no lb.qdepth gauges registered on the armed plane")
	}
}

// TestLoadBalancerValidation: unknown scenarios refuse loudly, and a
// non-positive SLO falls back to the documented 1 ms default.
func TestLoadBalancerValidation(t *testing.T) {
	s := NewSession()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown scenario did not panic")
			}
		}()
		s.LoadBalancer(hv.ModeSWSVt, 2, "sinusoid", 1, 0)
	}()
	r := s.LoadBalancer(hv.ModeSWSVt, 2, "steady", 7, 0)
	if r.SLOUs != 1000 {
		t.Errorf("default SLO = %vus, want 1000", r.SLOUs)
	}
}
