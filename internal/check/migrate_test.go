package check

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"svtsim/internal/hv"
	"svtsim/internal/snapshot"
	"svtsim/internal/virtio"
	"svtsim/internal/words"
)

// migrateSchedule is a hand-built multi-core schedule with disk traffic
// on both sides of a live migration, so queue state is hot when the
// snapshot is taken and exercised again after the restore.
func migrateSchedule() *Schedule {
	return &Schedule{
		Seed: 21, VCPUs: 1, Cores: 4,
		Ops: []Op{
			{Kind: OpBlkWrite, A: 10, B: 1},
			{Kind: OpBlkRead, A: 10, B: 1},
			{Kind: OpHypercall, A: 9},
			{Kind: OpBlkRead, A: 12, B: 2},
			{Kind: OpCPUID, A: 1},
		},
		Migrate: []MigratePoint{{After: 1, Fails: 0}},
	}
}

// dropVQIndex sabotages the snapshot mid-migration in one target mode:
// the L2 block queue's published avail index is wound back one slot —
// the canonical "dropped virtqueue index" restore bug. The restore
// itself is faithful (the corrupt snapshot round-trips digest-stable),
// so only the downstream guest-visible oracle can catch it.
func dropVQIndex(target hv.Mode, t *testing.T) func(hv.Mode, *snapshot.Snapshot) {
	return func(mode hv.Mode, snap *snapshot.Snapshot) {
		if mode != target {
			return
		}
		sec := snap.Section("vq/l2-blk")
		if sec == nil {
			t.Error("snapshot has no vq/l2-blk section")
			return
		}
		r := words.NewReader(sec.Name, sec.Words)
		for i := 0; i < virtio.QWordAvailIdx; i++ {
			r.Word()
		}
		idx := r.Word()
		if err := snap.MutateWord("vq/l2-blk", virtio.QWordAvailIdx, idx-1); err != nil {
			t.Error(err)
		}
	}
}

// TestBrokenRestoreCaught is the acceptance-criteria sabotage test for
// the snapshot layer: a restore that drops a virtqueue index must be
// detected by the differential oracle and ddmin-shrunk to a replayable
// .sched repro that still fails.
func TestBrokenRestoreCaught(t *testing.T) {
	opts := &RunOpts{Sabotage: dropVQIndex(hv.ModeSWSVt, t)}
	s := migrateSchedule()
	v := CheckSchedule(s, opts)
	if !v.Failed() {
		t.Fatal("dropped virtqueue index survived the oracle undetected")
	}

	min := Shrink(s, opts)
	if !CheckSchedule(min, opts).Failed() {
		t.Fatalf("shrunk schedule no longer fails:\n%s", min)
	}
	if len(min.Migrate) == 0 {
		t.Fatalf("shrink dropped the migrate point the failure needs:\n%s", min)
	}
	if len(min.Ops) > len(s.Ops) {
		t.Fatalf("shrink grew the schedule:\n%s", min)
	}

	// The minimized schedule must round-trip through a repro file and
	// still fail when replayed under the same sabotage.
	dir := t.TempDir()
	path, err := WriteRepro(dir, min)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("repro does not decode: %v", err)
	}
	if !CheckSchedule(replayed, opts).Failed() {
		t.Fatal("replayed repro no longer fails")
	}
	// Without the sabotage the same repro must pass: the schedule is
	// innocent, the broken restore was the bug.
	if v := CheckSchedule(replayed, nil); v.Failed() {
		t.Fatalf("repro fails even with a healthy restore:\n%s", v)
	}
}

// TestMigrateInvarianceGolden is the zero-fault determinism golden: a
// healthy run's guest-visible outcome with migrations enabled is
// indistinguishable from the same schedule with migrations disabled —
// the pause, transfer, retries, and rollback may cost the guest only
// virtual time.
func TestMigrateInvarianceGolden(t *testing.T) {
	s := migrateSchedule()
	// Second point: a forced rollback (3 == default MaxAttempts).
	s.Migrate = append(s.Migrate, MigratePoint{After: 3, Fails: 3})
	bare := s.clone()
	bare.Migrate = nil
	for _, mode := range hv.AllModes() {
		with := RunSchedule(s, mode, nil)
		without := RunSchedule(bare, mode, nil)
		if diffs := diffOutcomes(without, with); len(diffs) != 0 {
			t.Errorf("%v: migrations leaked into guest-visible state: %v", mode, diffs)
		}
	}
}

// The overlay behind `svtsim -migrate`: a single-core seed moves to a
// four-core host, a multi-core seed keeps its host, the generator's own
// migration points are replaced, every After wraps into the op range,
// and the ops are the generator's.
func TestWithMigrationsOverlay(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		genCores  int
		wantCores int
	}{
		{seed: 7, genCores: 0, wantCores: 4},
		{seed: 3, genCores: 3, wantCores: 3},
	} {
		gen := Generate(tc.seed)
		if gen.Cores != tc.genCores {
			t.Fatalf("seed %d: generator chose %d cores, test expects %d", tc.seed, gen.Cores, tc.genCores)
		}
		n := len(gen.Ops)
		s := withMigrations(tc.seed, []MigratePoint{{After: 1}, {After: n + 2, Fails: 3}})
		if s.Cores != tc.wantCores {
			t.Errorf("seed %d: cores = %d, want %d", tc.seed, s.Cores, tc.wantCores)
		}
		want := []MigratePoint{{After: 1}, {After: 2, Fails: 3}}
		if !reflect.DeepEqual(s.Migrate, want) {
			t.Errorf("seed %d: migrate = %+v, want %+v", tc.seed, s.Migrate, want)
		}
		if !reflect.DeepEqual(s.Ops, gen.Ops) {
			t.Errorf("seed %d: overlay changed the ops", tc.seed)
		}
	}
}

// CheckMigrated prints the oracle's verdict line, as `svtsim -migrate
// 2:0,5:3 -check-seed 7` does.
func TestCheckMigratedVerdict(t *testing.T) {
	var b bytes.Buffer
	if err := CheckMigrated(&b, 7, []MigratePoint{{After: 2}, {After: 5, Fails: 3}}); err != nil {
		t.Fatal(err)
	}
	want := "ok: seed 7, 18 ops [blkread compute cpuid hypercall ipi msr netping timer]\n"
	if b.String() != want {
		t.Fatalf("verdict = %q, want %q", b.String(), want)
	}
}
