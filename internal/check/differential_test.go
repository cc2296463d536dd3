package check

import (
	"reflect"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
)

// TestDifferential is the tentpole acceptance run: 200 generated
// schedules, each executed under every mode on fresh machines, all
// required to be architecturally equivalent — and the whole sweep
// deterministic (same seeds, same verdicts, byte-identical schedules).
func TestDifferential(t *testing.T) {
	const n = 200
	for seed := int64(1); seed <= n; seed++ {
		s := Generate(seed)
		if got, want := string(Generate(seed).Encode()), string(s.Encode()); got != want {
			t.Fatalf("generator is not deterministic for seed %d:\n%s\nvs\n%s", seed, got, want)
		}
		v := CheckSchedule(s, nil)
		if v.Failed() {
			min := Shrink(s, nil)
			t.Errorf("schedule %d inequivalent:\n%s\nshrunk repro:\n%s", seed, v, min)
		}
	}
}

// TestDifferentialDeterministic re-runs a few schedules and requires the
// full outcome vectors — digests, IRQ sets, exit multisets — to be
// identical run-to-run, not merely pass/fail-stable.
func TestDifferentialDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		s := Generate(seed)
		a := CheckSchedule(s, nil)
		b := CheckSchedule(s, nil)
		if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Errorf("seed %d: outcomes differ between identical runs:\n%+v\nvs\n%+v",
				seed, a.Outcomes, b.Outcomes)
		}
	}
}

// dropOneCPUID arms the DropOwnedExit hook on the L0 hypervisor of the
// given mode's machine: the first CPUID exit the guest hypervisor owns is
// silently emulated by L0 instead. The guest's registers come out
// identical (the emulation code is shared), so only the whole-machine
// exit accounting can notice.
func dropOneCPUID(target hv.Mode) func(hv.Mode, *machine.Machine) {
	return func(mode hv.Mode, m *machine.Machine) {
		if mode != target {
			return
		}
		dropped := false
		m.L0.DropOwnedExit = func(e isa.Exit) bool {
			if !dropped && e.Reason == isa.ExitCPUID {
				dropped = true
				return true
			}
			return false
		}
	}
}

// TestBrokenEquivalenceCaught is the acceptance-criteria sabotage test:
// an intentionally dropped reflection must be detected by the oracle and
// shrunk to a repro of at most 10 ops.
func TestBrokenEquivalenceCaught(t *testing.T) {
	for _, target := range []hv.Mode{hv.ModeSWSVt, hv.ModeHWSVt} {
		opts := &RunOpts{Mutate: dropOneCPUID(target)}
		// Pick a seed whose schedule includes plenty of ops so the shrink
		// has real work to do.
		var s *Schedule
		for seed := int64(1); ; seed++ {
			s = Generate(seed)
			if len(s.Ops) >= 12 {
				break
			}
		}
		v := CheckSchedule(s, opts)
		if !v.Failed() {
			t.Fatalf("%v: dropped CPUID reflection not detected", target)
		}
		found := false
		for _, d := range v.Diffs {
			if d.Mode == target && d.Field == "exits[CPUID]" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: expected an exits[cpuid] diff, got: %v", target, v.Diffs)
		}
		min := Shrink(s, opts)
		if !CheckSchedule(min, opts).Failed() {
			t.Fatalf("%v: shrunk schedule no longer fails:\n%s", target, min)
		}
		if len(min.Ops) > 10 {
			t.Errorf("%v: shrunk repro has %d ops, want <= 10:\n%s", target, len(min.Ops), min)
		}
	}
}

// TestSWSVtThreadAccounting checks the accounting split the oracle relies
// on: under SW SVt, reflected exits are serviced by the SVt-thread off
// the command ring, so they appear in HandledByReason, not in the main
// instance's run-loop profile.
func TestSWSVtThreadAccounting(t *testing.T) {
	s := &Schedule{Seed: 9, VCPUs: 1, Ops: []Op{{Kind: OpCPUID, A: 7}, {Kind: OpCPUID, A: 1}}}
	out := RunSchedule(s, hv.ModeSWSVt, nil)
	if !out.Completed {
		t.Fatalf("run did not complete: %+v", out)
	}
	base := RunSchedule(s, hv.ModeBaseline, nil)
	if out.Exits != base.Exits {
		t.Fatalf("exit multisets diverge: sw=%v baseline=%v", out.Exits, base.Exits)
	}
	if out.Exits[isa.ExitCPUID] == 0 {
		t.Fatal("no CPUID exits recorded at all")
	}
}

// TestFaultedScheduleStillEquivalent pins the §4 recovery claim: with the
// wakeup-drop site firing at a high rate, the watchdog/breaker machinery
// must hide every loss from the nested guest.
func TestFaultedScheduleStillEquivalent(t *testing.T) {
	s := &Schedule{
		Seed: 5, VCPUs: 1, WakeupDropRate: 0.9,
		Ops: []Op{
			{Kind: OpCPUID, A: 7, B: 3},
			{Kind: OpHypercall, A: 9},
			{Kind: OpMSR, A: 4, B: 2},
			{Kind: OpCPUID, A: 1},
		},
	}
	v := CheckSchedule(s, nil)
	if v.Failed() {
		t.Fatalf("recovery machinery leaked a fault into guest-visible state:\n%s", v)
	}
}
