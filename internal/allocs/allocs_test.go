package allocs

import (
	"testing"

	"svtsim/internal/race"
)

var sink *[64]byte

// A path that allocates on one call in four reads 0.25, where
// testing.AllocsPerRun's integer mean reads 0.
func TestPerRunCountsPartialAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	calls := 0
	f := func() {
		calls++
		if calls%4 == 0 {
			sink = new([64]byte)
		}
	}
	if got := PerRun(100, f); got != 0.25 {
		t.Fatalf("PerRun = %v, want 0.25", got)
	}
	if got := testing.AllocsPerRun(100, f); got != 0 {
		t.Fatalf("testing.AllocsPerRun = %v, want its truncated 0", got)
	}
}
