package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/host"
	"svtsim/internal/hv"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestFleetGolden pins the fleet experiments byte-for-byte at the CI
// smokes' parameters. Storm downtime is priced from each VM's
// migration-image size, lb tails from its phase-1 service samples, and
// density tails from its phase-1 latencies, so any change to the shared
// phase-1 → admit → replay pipeline shows up here. Rewrite with -update
// only when the change to the numbers is intended.
func TestFleetGolden(t *testing.T) {
	cases := []struct {
		name string
		topo host.Topology
		run  func(s *Session, b *strings.Builder)
	}{
		{"storm", host.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2}, func(s *Session, b *strings.Builder) {
			for _, r := range s.StormTable(hv.AllModes(), 6, 12, 42) {
				b.WriteString(r.StatsLine() + "\n")
			}
		}},
		{"lb", host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}, func(s *Session, b *strings.Builder) {
			for _, sc := range LBScenarios() { // what -lb-scenario all runs
				for _, r := range s.LoadBalancerTable(hv.AllModes(), 3, sc, 42, 1000) {
					b.WriteString(r.StatsLine() + "\n")
				}
			}
		}},
		// A delayed segment is held by its stack across virtual time
		// while the stack reuses its encode buffers; the CI step of the
		// same name runs this cell through the CLI at two pool widths.
		{"lb-delay", host.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}, func(s *Session, b *strings.Builder) {
			spec, err := fault.ParseSpec("net/segment:rate=0.05,delay=20us", 1)
			if err != nil {
				panic(err)
			}
			s.SetFaults(spec)
			for _, r := range s.LoadBalancerTable(hv.AllModes(), 3, "steady", 42, 1000) {
				b.WriteString(r.StatsLine() + "\n")
			}
		}},
		{"density", host.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 2}, func(s *Session, b *strings.Builder) {
			res := s.DensitySweep(hv.AllModes(), 3, 500)
			for _, r := range res {
				for _, pt := range r.Points {
					b.WriteString(pt.StatsLine() + "\n")
				}
			}
			for _, r := range res {
				b.WriteString(r.SummaryLine() + "\n")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			if err := s.SetTopology(tc.topo); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			tc.run(s, &b)
			path := filepath.Join("testdata", tc.name+".golden")
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
				t.Fatalf("%s output differs from %s:\ngot:\n%swant:\n%s", tc.name, path, got, want)
			}
		})
	}
}
