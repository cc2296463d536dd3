package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/host"
	"svtsim/internal/hv"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestStormTableGolden pins the storm table (the CI smoke's parameters:
// host 1x4x2, 6 VMs, 12 storms, seed 42) byte-for-byte. Storm downtime
// is priced from each VM's migration-image size, so this catches any
// change to how that size is computed. Rewrite with -update only when
// the change to the numbers is intended.
func TestStormTableGolden(t *testing.T) {
	s := NewSession()
	if err := s.SetTopology(host.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range s.StormTable(hv.AllModes(), 6, 12, 42) {
		b.WriteString(r.StatsLine())
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "storm.golden")
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
		t.Fatalf("storm table differs from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
