package traffic

import (
	"testing"

	"svtsim/internal/sim"
)

func TestPoissonDeterministicAndRate(t *testing.T) {
	spec := Spec{Kind: Poisson, Rate: 100000, Seed: 3}
	d := 10 * sim.Millisecond
	a := arrivals(spec, d)
	b := arrivals(spec, d)
	if len(a) != len(b) {
		t.Fatalf("same spec, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// 100k req/s over 10 ms ≈ 1000 arrivals; allow wide stochastic slack.
	if len(a) < 700 || len(a) > 1300 {
		t.Fatalf("got %d arrivals, want ≈1000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= d {
		t.Fatalf("arrival %v past horizon %v", last, d)
	}
	other := arrivals(Spec{Kind: Poisson, Rate: 100000, Seed: 4}, d)
	if len(other) == len(a) && other[0] == a[0] && other[len(other)-1] == a[len(a)-1] {
		t.Fatal("different seeds produced the same schedule")
	}
}

func TestOnOffBurstiness(t *testing.T) {
	spec := Spec{
		Kind: OnOff, BurstRate: 200000, Rate: 1000,
		OnDur: sim.Millisecond, OffDur: 4 * sim.Millisecond, Seed: 11,
	}
	arr := arrivals(spec, 10*sim.Millisecond)
	var on, off int
	for _, a := range arr {
		// Phases: [0,1ms) on, [1,5ms) off, [5,6ms) on, [6,10ms) off.
		inOn := a < sim.Millisecond || (a >= 5*sim.Millisecond && a < 6*sim.Millisecond)
		if inOn {
			on++
		} else {
			off++
		}
	}
	// 2 ms of on-phase at 200k/s ≈ 400; 8 ms of off-phase at 1k/s ≈ 8.
	if on < 250 || off > 40 {
		t.Fatalf("burst shape wrong: %d on-phase, %d off-phase arrivals", on, off)
	}
}

func TestOnOffSilentQuietPhase(t *testing.T) {
	spec := Spec{Kind: OnOff, BurstRate: 100000, Rate: 0,
		OnDur: sim.Millisecond, OffDur: sim.Millisecond, Seed: 5}
	for _, a := range arrivals(spec, 6*sim.Millisecond) {
		phase := (a / sim.Millisecond) % 2
		if phase != 0 {
			t.Fatalf("arrival %v inside a silent phase", a)
		}
	}
}

func TestZeroRateSilent(t *testing.T) {
	if got := arrivals(Spec{Kind: Poisson}, sim.Second); len(got) != 0 {
		t.Fatal("zero-rate poisson must be silent")
	}
	if got := arrivals(Spec{Kind: OnOff}, sim.Second); len(got) != 0 {
		t.Fatal("zero-rate on/off must be silent")
	}
}

// TestSourceMatchesArrivals pins the engine-driven source to the pure
// schedule: Fire runs at exactly the instants arrivals reports.
func TestSourceMatchesArrivals(t *testing.T) {
	spec := Spec{Kind: OnOff, BurstRate: 150000, Rate: 20000,
		OnDur: 500 * sim.Microsecond, OffDur: sim.Millisecond, Seed: 21}
	stop := 5 * sim.Millisecond
	want := arrivals(spec, stop)

	eng := sim.New()
	var got []sim.Time
	src := &Source{Eng: eng, Spec: spec, OnArrival: func(i uint64) {
		got = append(got, eng.Now())
	}}
	src.Start(stop)
	eng.Drain(1 << 20)
	if len(got) != len(want) {
		t.Fatalf("source fired %d times, schedule has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d at %v, schedule says %v", i, got[i], want[i])
		}
	}
	if src.Issued != uint64(len(want)) {
		t.Fatalf("issued %d, want %d", src.Issued, len(want))
	}
}

func TestSourceOffsetBase(t *testing.T) {
	spec := Spec{Kind: Poisson, Rate: 1e6, Seed: 2}
	eng := sim.New()
	var first sim.Time
	src := &Source{Eng: eng, Spec: spec, OnArrival: func(i uint64) {
		if i == 0 {
			first = eng.Now()
		}
	}}
	// Start the source at t=100µs: the schedule shifts with it.
	eng.After(100*sim.Microsecond, func() { src.Start(200 * sim.Microsecond) })
	eng.Drain(1 << 20)
	w := arrivals(spec, 100*sim.Microsecond)
	if len(w) == 0 || first != 100*sim.Microsecond+w[0] {
		t.Fatalf("first fire at %v, want base+%v", first, w[0])
	}
}

// arrivals materialises every arrival instant in [0, horizon), strictly
// increasing: the pure schedule a Source fires on.
func arrivals(s Spec, horizon sim.Time) []sim.Time {
	var out []sim.Time
	g := s.generator()
	for {
		t, ok := g.next()
		if !ok || t >= horizon {
			return out
		}
		out = append(out, t)
	}
}
