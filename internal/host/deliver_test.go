package host

import (
	"testing"

	"svtsim/internal/sim"
)

// TestDeliverPricesTopologyDistance pins the cross-core fabric: a
// delivery between SMT siblings costs IPISMT, across sockets
// IPICrossNUMA, plus the caller's extra serialization delay.
func TestDeliverPricesTopologyDistance(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
	h, err := New(topo, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to CtxID
		extra    sim.Time
		want     sim.Time
	}{
		{0, 1, 0, h.P.IPISMT},
		{0, 2, 0, h.P.IPICrossCore},
		{0, 4, 0, h.P.IPICrossNUMA},
		{0, 2, 3 * sim.Microsecond, h.P.IPICrossCore + 3*sim.Microsecond},
		{3, 3, -5, h.P.IPISelf}, // negative extra clamps to zero
	}
	for _, tc := range cases {
		var at sim.Time = -1
		h.Deliver(tc.from, tc.to, tc.extra, func() { at = h.Eng.Now() })
		h.Eng.RunUntil(h.Eng.Now() + sim.Second)
		if at != tc.want {
			t.Fatalf("Deliver(%d->%d, extra=%v) fired at %v, want %v", tc.from, tc.to, tc.extra, at, tc.want)
		}
		h, err = New(topo, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
	}
}
