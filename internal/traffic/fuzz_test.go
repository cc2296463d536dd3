package traffic

import (
	"encoding/binary"
	"testing"

	"svtsim/internal/sim"
)

// FuzzArrivalTrace drives Spec construction from raw bytes and checks
// the schedule contract for every reachable spec: strictly increasing
// instants, all inside the horizon, bounded count (gaps are clamped to
// >= 1 ns), and bit-identical replay.
func FuzzArrivalTrace(f *testing.F) {
	f.Add([]byte{0, 100, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{1, 200, 50, 1, 2, 0, 0, 0, 0, 9, 3, 4})
	f.Add([]byte{2, 0, 0, 0, 10, 20, 30, 0, 5, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		spec := Spec{
			Kind:      Kind(data[0] % 2),
			Rate:      float64(data[1]) * 1000,
			BurstRate: float64(data[2]) * 2000,
			OnDur:     sim.Time(data[3]) * 10 * sim.Microsecond,
			OffDur:    sim.Time(data[4]) * 10 * sim.Microsecond,
			Seed:      int64(binary.LittleEndian.Uint32(data[5:9])),
		}
		const horizon = 200 * sim.Microsecond
		a := arrivals(spec, horizon)
		if len(a) > int(horizon) {
			t.Fatalf("%d arrivals exceed the 1-per-ns bound", len(a))
		}
		for i, at := range a {
			if at < 0 || at >= horizon {
				t.Fatalf("arrival %d at %v outside [0, %v)", i, at, horizon)
			}
			if i > 0 && at <= a[i-1] {
				t.Fatalf("arrival %d at %v not after %v", i, at, a[i-1])
			}
		}
		b := arrivals(spec, horizon)
		if len(a) != len(b) {
			t.Fatalf("replay diverged: %d vs %d arrivals", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
			}
		}
	})
}
