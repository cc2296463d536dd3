package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/hv"
	"svtsim/internal/ports"
)

// TestFaultedSWSVtGolden pins the faulted SW-SVt reflection path byte
// for byte: lost, delayed and jittered wakeups, stalled ring pushes on
// both sides of the channel, spurious ring pops and dropped IPIs, at
// three fault seeds on both ports, plus one wakeup rate high enough to
// trip and re-arm the channel breaker. Every watchdog retry charges
// virtual time, so any change to the order of consults, charges and
// counts in the retry loops moves a number here. Rewrite with -update
// only when the change to the numbers is intended.
func TestFaultedSWSVtGolden(t *testing.T) {
	const mixed = "swsvt/wakeup:rate=0.2,drop,delay=2us,jitter=1us;" +
		"swsvt/ring-push:rate=0.15,drop,delay=1us;" +
		"swsvt/ring-pop:rate=0.15,drop,delay=1us;" +
		"apic/ipi:rate=0.05,drop"
	const breaker = "swsvt/wakeup:rate=0.85,drop"
	type run struct {
		spec string
		seed int64
	}
	runs := []run{{mixed, 1}, {mixed, 7}, {mixed, 99}, {breaker, 3}}
	var b strings.Builder
	for _, name := range []string{"x86", "armlike"} {
		p, err := ports.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		s.SetPort(p)
		for _, r := range runs {
			spec, err := fault.ParseSpec(r.spec, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			res := s.FaultSweep(hv.ModeSWSVt, spec, 200)
			if !res.Completed {
				t.Fatalf("%s seed %d: run did not complete", name, r.seed)
			}
			fmt.Fprintf(&b, "port=%s seed=%d perop=%dns reflections=%d watchdog=%d fallbacks=%d fallback_reflections=%d breaker_trips=%d breaker_recoveries=%d faults=%s\n",
				name, r.seed, int64(res.PerOp), res.Reflections, res.WatchdogFires,
				res.Fallbacks, res.FallbackReflections, res.BreakerTrips,
				res.BreakerRecoveries, r.spec)
		}
	}
	path := filepath.Join("testdata", "swsvt-faults.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("faulted SW-SVt output differs from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
