package check

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/ports"
)

// TestCorpus replays every frozen regression schedule under testdata/.
// Each file pins a scenario that once exposed (or nearly exposed) an
// inequivalence; they must all stay equivalent across the full mode set.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.sched"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("corpus has %d schedules, expected at least 4 (ipi-deadlock, breaker-trip, smp-wake, migrate-rollback)", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			var out bytes.Buffer
			if err := ReplayFile(&out, path); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
		})
	}
}

// TestCorpusDecodes keeps the corpus files parseable independently of
// whether their runs pass, so a codec change cannot silently orphan them.
func TestCorpusDecodes(t *testing.T) {
	for _, name := range []string{"ipi-deadlock.sched", "breaker-trip.sched", "smp-wake.sched", "migrate-rollback.sched"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReproReplaysOnItsPort: a repro found and shrunk under armlike
// carries its port, and its replay runs there. The sabotage drops one
// owned CPUID exit under SW SVt on armlike only, so the repro fails on
// replay under armlike, and the same file without its port line, which
// replays on x86, passes.
func TestReproReplaysOnItsPort(t *testing.T) {
	armlike, err := ports.Parse("armlike")
	if err != nil {
		t.Fatal(err)
	}
	drop := dropOneCPUID(hv.ModeSWSVt)
	armlikeOnly := func(mode hv.Mode, m *machine.Machine) {
		if m.Cfg.Port.Name() == "armlike" {
			drop(mode, m)
		}
	}
	seed := int64(1)
	for !Generate(seed).usesKind(OpCPUID) {
		seed++
	}
	dir := t.TempDir()
	opts := &RunOpts{Port: armlike, Mutate: armlikeOnly}
	if n, err := RunBudgetOpts(context.Background(), io.Discard, 1, seed, dir, opts, nil); n != 1 || err != nil {
		t.Fatalf("seed %d: %d failures, %v; want the sabotage caught", seed, n, err)
	}
	path := filepath.Join(dir, ReproName(&Schedule{Seed: seed}))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("\nport armlike\n")) {
		t.Fatalf("repro carries no port line:\n%s", raw)
	}
	replay := &RunOpts{Mutate: armlikeOnly}
	if err := replayFile(io.Discard, path, replay); err == nil {
		t.Fatal("the armlike repro passed on replay")
	}
	x86 := filepath.Join(dir, "x86.sched")
	if err := os.WriteFile(x86, []byte(strings.Replace(string(raw), "port armlike\n", "", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := replayFile(&out, x86, replay); err != nil {
		t.Fatalf("the repro failed on x86, where nothing is sabotaged: %v\n%s", err, out.String())
	}
}
