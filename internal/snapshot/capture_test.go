package snapshot_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/qcheck"
	"svtsim/internal/snapshot"
)

// diskMachine builds, runs, and returns (without shutting down) a nested
// machine whose L2 guest wrote n patterned sectors to disk. The caller
// owns Shutdown.
func diskMachine(t testing.TB, mode hv.Mode, pat byte, n int) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	cfg := machine.DefaultConfig(mode)
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	data := make([]byte, 512)
	for i := range data {
		data[i] = pat + byte(i)
	}
	m.InstallL2(io, false, true, func(env *guest.Env) {
		for i := 0; i < n; i++ {
			if !env.Blk.Write(uint64(64+i*8), data) {
				t.Error("guest write failed")
				return
			}
		}
		if _, ok := env.Blk.Read(64, len(data)); !ok {
			t.Error("guest read failed")
		}
	})
	m.Run()
	return m, io
}

func TestRoundTripAllModes(t *testing.T) {
	for _, mode := range hv.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, io := diskMachine(t, mode, 0x5a, 3)
			defer m.Shutdown()
			before, after, err := snapshot.RoundTrip(m, io)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if before != after {
				t.Fatalf("digest not stable across restore: %#x -> %#x", before, after)
			}
		})
	}
}

// TestRoundTripQuick is the property form: any (mode, pattern, op count)
// yields a capture whose restore is digest-stable. Machines are
// expensive, so the count is small; the qcheck seed keeps it replayable.
func TestRoundTripQuick(t *testing.T) {
	modes := hv.AllModes()
	prop := func(pat byte, nOps, modeSel uint8) bool {
		mode := modes[int(modeSel)%len(modes)]
		m, io := diskMachine(t, mode, pat, 1+int(nOps)%4)
		defer m.Shutdown()
		before, after, err := snapshot.RoundTrip(m, io)
		return err == nil && before == after
	}
	if err := quick.Check(prop, qcheck.Config(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// TestTransplant restores machine A's snapshot into a freshly built and
// run machine B of identical shape but different data, and checks B now
// carries A's state bit-for-bit — including the disk image.
func TestTransplant(t *testing.T) {
	ma, ioa := diskMachine(t, hv.ModeSWSVt, 0x11, 2)
	defer ma.Shutdown()
	mb, iob := diskMachine(t, hv.ModeSWSVt, 0xee, 2)
	defer mb.Shutdown()

	snap := snapshot.Capture(ma, ioa)
	if got := snapshot.Capture(mb, iob).Digest(); got == snap.Digest() {
		t.Fatal("test premise broken: A and B start with identical state")
	}
	if err := snapshot.Restore(mb, iob, snap); err != nil {
		t.Fatalf("transplant restore: %v", err)
	}
	if got := snapshot.Capture(mb, iob).Digest(); got != snap.Digest() {
		t.Fatalf("transplant not faithful: digest %#x want %#x", got, snap.Digest())
	}
	wantSector, err := ioa.Disk.ReadSync(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	gotSector, err := iob.Disk.ReadSync(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSector, wantSector) {
		t.Fatal("B's disk does not hold A's bytes after transplant")
	}
}

func TestCloneIsCopyOnWrite(t *testing.T) {
	m, io := diskMachine(t, hv.ModeBaseline, 0x33, 1)
	defer m.Shutdown()
	snap := snapshot.Capture(m, io)
	base := snap.Digest()

	c := snap.Clone()
	if c.Digest() != base {
		t.Fatal("clone digest differs from original")
	}
	if c.DiffBytes(snap) != 0 {
		t.Fatal("undiverged clone should cost zero diff bytes")
	}
	sec := c.Section("vq/l2-blk")
	if sec == nil {
		t.Fatal("no vq/l2-blk section")
	}
	if err := c.MutateWord("vq/l2-blk", snapshot.QWordAvailIdx, sec.Words[snapshot.QWordAvailIdx]+1); err != nil {
		t.Fatal(err)
	}
	if snap.Digest() != base {
		t.Fatal("mutating a clone changed the original (COW broken)")
	}
	if c.Digest() == base {
		t.Fatal("mutation did not change the clone's digest")
	}
	want := len(sec.Name) + 8 + 8*len(sec.Words)
	if got := c.DiffBytes(snap); got != want {
		t.Fatalf("diff bytes %d, want the mutated section's %d", got, want)
	}

	// A faithful restore of the corrupt-but-well-formed clone must
	// succeed and land exactly the corrupted words — this is the path
	// the broken-restore differential test drives, where the damage is
	// only caught downstream by the guest-visible oracle.
	if err := snapshot.Restore(m, io, c); err != nil {
		t.Fatalf("restore of mutated clone: %v", err)
	}
	if got := snapshot.Capture(m, io).Digest(); got != c.Digest() {
		t.Fatalf("restore of mutated clone not faithful: %#x want %#x", got, c.Digest())
	}
}

func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	m, io := diskMachine(t, hv.ModeSWSVt, 0x44, 1)
	defer m.Shutdown()
	snap := snapshot.Capture(m, io)

	t.Run("mode-mismatch", func(t *testing.T) {
		c := snap.Clone()
		if err := c.MutateWord("meta", 0, uint64(hv.ModeBaseline)); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a snapshot from another mode")
		}
	})
	t.Run("ring-inconsistent", func(t *testing.T) {
		c := snap.Clone()
		sec := c.Section("swsvt")
		if sec == nil {
			t.Fatal("no swsvt section")
		}
		// Word 1 is the ToSVt ring tail; bumping it without a matching
		// command makes head/tail disagree with the command count.
		if err := c.MutateWord("swsvt", 1, sec.Words[1]+1); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted an inconsistent SVt ring")
		}
	})
	t.Run("length-bomb", func(t *testing.T) {
		c := snap.Clone()
		// Word 0 of an EPT section counts mapped pages; a huge claim
		// must fail the reader's bounds check, not allocate.
		if err := c.MutateWord("ept/01", 0, 1<<40); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a length bomb")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		c := snap.Clone()
		sec := c.Section("core/gpr")
		c.Section("core/gpr").Words = append([]uint64(nil), sec.Words[:len(sec.Words)-1]...)
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a truncated section")
		}
	})
	t.Run("trailing-words", func(t *testing.T) {
		c := snap.Clone()
		sec := c.Section("core/gpr")
		sec.Words = append(append([]uint64(nil), sec.Words...), 7)
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted trailing words")
		}
	})
	t.Run("renamed-section", func(t *testing.T) {
		c := snap.Clone()
		c.Sections = append([]snapshot.Section(nil), c.Sections...)
		c.Sections[0].Name = "not-meta"
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a renamed section")
		}
	})
	t.Run("missing-section", func(t *testing.T) {
		c := snap.Clone()
		c.Sections = append([]snapshot.Section(nil), c.Sections[:len(c.Sections)-1]...)
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a snapshot with a missing section")
		}
	})

	// The machine must still be restorable after all the rejected
	// attempts (partial restores are allowed, corruption is not sticky).
	if err := snapshot.Restore(m, io, snap); err != nil {
		t.Fatalf("clean restore after rejections: %v", err)
	}
	if got := snapshot.Capture(m, io).Digest(); got != snap.Digest() {
		t.Fatal("machine did not recover its original state")
	}
}

// TestRestoreStructuralMismatchLeavesMachineUntouched: a snapshot whose
// last section is renamed is rejected before any section loads, so the
// twin it was restored into keeps its own state exactly.
func TestRestoreStructuralMismatchLeavesMachineUntouched(t *testing.T) {
	ma, ioa := diskMachine(t, hv.ModeSWSVt, 0x21, 2)
	defer ma.Shutdown()
	mb, iob := diskMachine(t, hv.ModeSWSVt, 0xd4, 2)
	defer mb.Shutdown()

	snap := snapshot.Capture(ma, ioa)
	last := len(snap.Sections) - 1
	snap.Sections[last].Name += "-renamed"
	before := snapshot.Capture(mb, iob).Digest()
	if err := snapshot.Restore(mb, iob, snap); err == nil {
		t.Fatal("restore accepted a snapshot with a renamed last section")
	}
	if got := snapshot.Capture(mb, iob).Digest(); got != before {
		t.Fatalf("rejected restore changed the machine: digest %#x, want %#x", got, before)
	}
}
