package snapshot_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/workload"
)

// TestIOCaptureGolden pins the bytes the nested block path moves: each
// machine runs ioping-style 512 B random writes, then 512 B random reads,
// then fio-style 4 KB random reads over a small span, so reads return
// what the writes left. The capture covers host memory (every guest
// buffer the data crossed) and the disk image, so a data-path change
// that moves, drops or reorders a byte changes a digest here even when
// the bench goldens' state digests do not. Rewrite with -update only
// when the data the guest sees is meant to change.
func TestIOCaptureGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range ports.Names() {
		for _, mode := range hv.AllModes() {
			p := ports.Get(name)
			cfg := machine.DefaultConfig(mode)
			cfg.Port, cfg.Costs = p, p.Costs()
			io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
			m := machine.NewNested(cfg)
			runs := []*workload.DiskBench{
				{N: 24, Size: 512, Write: true, Sectors: 256, Rng: sim.NewRand(1)},
				{N: 24, Size: 512, Sectors: 256, Rng: sim.NewRand(2)},
				{N: 12, Size: 4096, Sectors: 256, Rng: sim.NewRand(3)},
			}
			m.InstallL2(io, false, true, func(env *guest.Env) {
				for _, w := range runs {
					w.Run(env)
				}
			})
			m.Run()
			snap := snapshot.Capture(m, io)
			for i, w := range runs {
				if len(w.Lat) != w.N {
					t.Fatalf("%s/%s: run %d completed %d of %d ops", name, mode, i, len(w.Lat), w.N)
				}
			}
			fmt.Fprintf(&b, "port=%s mode=%s digest=%#016x bytes=%d virt=%d\n",
				name, mode, snap.Digest(), snap.Bytes(), m.Now())
		}
	}
	path := filepath.Join("testdata", "io-capture.golden")
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
		t.Fatalf("captures differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
