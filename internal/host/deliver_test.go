package host

import (
	"testing"

	"svtsim/internal/sim"
)

// TestDeliverPricesTopologyDistance pins the cross-core fabric: a hop
// between SMT siblings costs IPISMT, across cores IPICrossCore, across
// sockets IPICrossNUMA, and a self-IPI IPISelf.
func TestDeliverPricesTopologyDistance(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}
	h, err := New(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to CtxID
		want     sim.Time
	}{
		{0, 1, ipiSMT},
		{0, 2, ipiCrossCore},
		{0, 4, ipiCrossNUMA},
		{3, 3, ipiSelf},
	}
	for _, tc := range cases {
		if got := h.IPILatency(tc.from, tc.to); got != tc.want {
			t.Fatalf("IPILatency(%d->%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}
