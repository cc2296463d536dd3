package snapshot_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"svtsim/internal/ept"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/mem"
	"svtsim/internal/ports"
	"svtsim/internal/qcheck"
	"svtsim/internal/race"
	"svtsim/internal/snapshot"
	"svtsim/internal/virtio"
	"svtsim/internal/vmcs"
	"svtsim/internal/words"

	_ "svtsim/internal/ports/armlike"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// diskMachine builds, runs, and returns a nested machine whose L2 guest
// wrote n patterned sectors to disk.
func diskMachine(t testing.TB, mode hv.Mode, pat byte, n int) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	return portDiskMachine(t, nil, mode, pat, n)
}

// portDiskMachine is diskMachine on port p (nil keeps the default x86
// port and its calibrated costs).
func portDiskMachine(t testing.TB, p ports.Port, mode hv.Mode, pat byte, n int) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	cfg := machine.DefaultConfig(mode)
	if p != nil {
		cfg.Port = p
		cfg.Costs = p.Costs()
	}
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
		if !env.Blk.Read(64, make([]byte, len(data))) {
			t.Error("guest read failed")
		}
	})
	m.Run()
	return m, io
}

// flat returns a section's logical words.
func flat(sec *snapshot.Section) []uint64 {
	r := words.NewReader(sec.Name, sec.Words)
	ws := make([]uint64, sec.Words.Len())
	for i := range ws {
		ws[i] = r.Word()
	}
	return ws
}

// literal stores ws as literal words only.
func literal(ws []uint64) words.Stream {
	return new(words.Writer).Record(func(w *words.Writer) {
		for _, x := range ws {
			w.Word(x)
		}
	})
}

// eptPermWord returns the index of the permission word in the middle row
// of an EPT section, which sits inside a run of consecutive mappings.
func eptPermWord(t testing.TB, ws []uint64) int {
	if ws[0] < 3 {
		t.Fatalf("test premise broken: EPT section maps %d pages", ws[0])
	}
	return 1 + 3*int(ws[0]/2) + 2
}

// zeroLineWord returns the index of a word inside a zero 256-byte line of
// a mem section: a page row is its index word and then its 32-word lines.
func zeroLineWord(t testing.TB, ws []uint64) int {
	const lineWords, pageWords = 32, mem.PageSize / 8
	for p := 0; p < int(ws[0]); p++ {
		base := 1 + p*(1+pageWords) + 1
		for l := 0; l < pageWords; l += lineWords {
			if !slices.ContainsFunc(ws[base+l:base+l+lineWords], func(x uint64) bool { return x != 0 }) {
				return base + l + lineWords/2
			}
		}
	}
	t.Fatal("test premise broken: no zero line in the mem section")
	return 0
}

// TestCaptureGolden pins the snapshot format: the digest and encoded
// size of a disk machine's capture on every port and mode. Any change
// to a section's words, names or order shows up here. Rewrite with
// -update only when a format change is intended.
func TestCaptureGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range ports.Names() {
		for _, mode := range hv.AllModes() {
			m, io := portDiskMachine(t, ports.Get(name), mode, 0x5a, 3)
			snap := snapshot.Capture(m, io)
			fmt.Fprintf(&b, "port=%s mode=%s digest=%#016x bytes=%d\n", name, mode, snap.Digest(), snap.Bytes())
		}
	}
	path := filepath.Join("testdata", "capture.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestCaptureAllocBudget: capturing the disk machine allocates the
// section table and each section's literal words and ramps, once and
// exactly sized, not a copy of every logical word: EPT runs and zero
// memory lines are ramps.
func TestCaptureAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const (
		allocBudget = 77     // mallocs per capture; 67 measured on go1.24, 79 before the sorted indices were kept
		byteBudget  = 40_000 // bytes per capture; 25,368 measured on go1.24, 66,080 before counted sections, 868,038 before ramps
	)
	m, io := diskMachine(t, hv.ModeSWSVt, 0x5a, 3)
	snapshot.Capture(m, io)
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		snapshot.Capture(m, io)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / reps
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / reps
	t.Logf("%.1f mallocs, %.0f B per capture", allocs, bytes)
	if allocs > allocBudget || bytes > byteBudget {
		t.Errorf("%.1f mallocs and %.0f B per capture, budget %d and %d", allocs, bytes, allocBudget, byteBudget)
	}
}

// BenchmarkCapture captures the disk machine of TestCaptureGolden in
// sw-svt mode.
func BenchmarkCapture(b *testing.B) {
	m, io := diskMachine(b, hv.ModeSWSVt, 0x5a, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot.Capture(m, io)
	}
}

func TestRoundTripAllModes(t *testing.T) {
	for _, mode := range hv.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m, io := diskMachine(t, mode, 0x5a, 3)
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
	mb, iob := diskMachine(t, hv.ModeSWSVt, 0xee, 2)

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
	if err := c.MutateWord("vq/l2-blk", virtio.QWordAvailIdx, flat(sec)[virtio.QWordAvailIdx]+1); err != nil {
		t.Fatal(err)
	}
	if snap.Digest() != base {
		t.Fatal("mutating a clone changed the original (COW broken)")
	}
	if c.Digest() == base {
		t.Fatal("mutation did not change the clone's digest")
	}
	want := len(sec.Name) + 8 + 8*sec.Words.Len()
	if got := c.DiffBytes(snap); got != want {
		t.Fatalf("diff bytes %d, want the mutated section's %d", got, want)
	}

	// Words inside ramps — a permission word mid-way through an EPT run,
	// and words of a zero memory line — change in the mutated clone
	// only: the original and a sibling clone, which share the ramps,
	// keep every word.
	sib := snap.Clone()
	for _, name := range []string{"ept/01", "mem/host"} {
		orig := flat(snap.Section(name))
		idx := eptPermWord(t, orig)
		if name == "mem/host" {
			idx = zeroLineWord(t, orig)
		}
		mc := snap.Clone()
		want := slices.Clone(orig)
		for _, i := range []int{idx, idx + 3, idx - 1} {
			want[i] ^= 0x5
			if err := mc.MutateWord(name, i, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := flat(mc.Section(name)); !slices.Equal(got, want) {
			t.Fatalf("%s: mutated clone does not hold exactly the three mutated words", name)
		}
		for who, other := range map[string]*snapshot.Snapshot{"original": snap, "sibling clone": sib} {
			if got := flat(other.Section(name)); !slices.Equal(got, orig) {
				t.Fatalf("%s: mutating a clone inside a ramp changed the %s", name, who)
			}
			if other.Digest() != base {
				t.Fatalf("%s: mutating a clone inside a ramp changed the %s's digest", name, who)
			}
		}
		if got, want := mc.DiffBytes(snap), len(name)+8+8*len(orig); got != want {
			t.Fatalf("%s: diff bytes %d, want the mutated section's %d", name, got, want)
		}
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
		if err := c.MutateWord("swsvt", 1, flat(sec)[1]+1); err != nil {
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
		ws := flat(sec)
		sec.Words = literal(ws[:len(ws)-1])
		if err := snapshot.Restore(m, io, c); err == nil {
			t.Fatal("restore accepted a truncated section")
		}
	})
	t.Run("trailing-words", func(t *testing.T) {
		c := snap.Clone()
		sec := c.Section("core/gpr")
		sec.Words = literal(append(flat(sec), 7))
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

// TestRestoreRejectsMalformedWords: a word no component could hold is
// an error naming its section, and that section's component is left as
// it was.
func TestRestoreRejectsMalformedWords(t *testing.T) {
	m, io := diskMachine(t, hv.ModeSWSVt, 0x44, 1)
	snap := snapshot.Capture(m, io)

	at := func(i int) func([]uint64) int { return func([]uint64) int { return i } }
	// A VMCS section is the fields, the GPRs, the shadow flag, the
	// exiting-MSR count and list, then the dirty count and list.
	shadowFlag := int(vmcs.NumFields) + int(isa.NumGPR)
	firstDirty := func(ws []uint64) int {
		n := shadowFlag + 1
		n += 1 + int(ws[n])
		if ws[n] == 0 {
			t.Fatal("test premise broken: vmcs/02 has no dirty fields")
		}
		return n + 1
	}
	for _, tc := range []struct {
		name, section string
		idx           func([]uint64) int
		val           uint64
	}{
		{"page index outside host memory", "mem/host", at(1), 1 << 60},
		{"page indices out of order", "mem/host", at(2 + mem.PageSize/8), 0},
		{"page index outside the disk", "blk/disk", at(1), 1 << 40},
		{"EPT permission bits", "ept/01", at(3), 0xff},
		{"EPT frame that wraps", "ept/01", at(1), 1<<64 - 1},
		{"dirty field past NumFields", "vmcs/02", firstDirty, uint64(vmcs.NumFields)},
		{"bool word", "vmcs/12", at(shadowFlag), 2},
		{"16-bit queue index", "vq/l2-blk", at(virtio.QWordAvailIdx), 1 << 16},
		{"free count past the queue size", "vq/l2-blk", at(virtio.QWordNumFree), 1 << 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sec := snap.Section(tc.section)
			if sec == nil {
				t.Fatalf("no %s section", tc.section)
			}
			c := snap.Clone()
			if err := c.MutateWord(tc.section, tc.idx(flat(sec)), tc.val); err != nil {
				t.Fatal(err)
			}
			err := snapshot.Restore(m, io, c)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.section)) {
				t.Fatalf("restore = %v, want an error naming %q", err, tc.section)
			}
			if got := snapshot.Capture(m, io).Digest(); got != snap.Digest() {
				t.Fatalf("rejected restore changed the machine: digest %#x, want %#x", got, snap.Digest())
			}
		})
	}
}

// TestRestoreStructuralMismatchLeavesMachineUntouched: a snapshot whose
// last section is renamed is rejected before any section loads, so the
// twin it was restored into keeps its own state exactly.
func TestRestoreStructuralMismatchLeavesMachineUntouched(t *testing.T) {
	ma, ioa := diskMachine(t, hv.ModeSWSVt, 0x21, 2)
	mb, iob := diskMachine(t, hv.ModeSWSVt, 0xd4, 2)

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

// A guest write of only zeros to a fresh host page adds that page to
// the snapshot, so migration prices it: the page set is simulated state
// even when no memory backs the page's bytes.
func TestZeroWriteCountsInSize(t *testing.T) {
	m, io := diskMachine(t, hv.ModeSWSVt, 0x33, 1)
	before := snapshot.Size(m, io)
	if err := m.HostMem.Write(machine.HostMemSize-mem.PageSize, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	after := snapshot.Size(m, io)
	if want := before + 8*(1+mem.PageSize/8); after != want {
		t.Fatalf("Size after a zero write to a fresh page = %d, want %d (one more page row)", after, want)
	}
	if got := snapshot.Capture(m, io).Bytes(); got != after {
		t.Fatalf("Capture is %d bytes, Size reports %d", got, after)
	}
}

// FuzzRestore sets one word of a captured snapshot to a fuzzed value and
// restores it over the original. Restore must not panic, and a restore
// it accepts must be faithful: re-capturing yields the mutated
// snapshot's digest. The one exception is a vCPU's Halted word, which
// is captured for comparison but never restored, so re-capturing must
// yield the original digest instead.
func FuzzRestore(f *testing.F) {
	m, io := diskMachine(f, hv.ModeSWSVt, 0x5a, 2)
	snap := snapshot.Capture(m, io)
	f.Add(uint16(0), uint32(0), uint64(hv.ModeBaseline))
	f.Add(uint16(1), uint32(3), uint64(42))
	f.Add(uint16(4), uint32(70), uint64(1))
	f.Add(uint16(len(snap.Sections)-1), uint32(1), uint64(1))
	// Words inside ramps: a permission word in an EPT run, and a word of
	// a zero memory line.
	for i, sec := range snap.Sections {
		switch sec.Name {
		case "ept/01":
			f.Add(uint16(i), uint32(eptPermWord(f, flat(&sec))), uint64(ept.PermR))
		case "mem/host":
			f.Add(uint16(i), uint32(zeroLineWord(f, flat(&sec))), uint64(0x5a))
		}
	}
	f.Fuzz(func(t *testing.T, si uint16, wi uint32, val uint64) {
		sec := snap.Sections[int(si)%len(snap.Sections)]
		if sec.Words.Len() == 0 {
			return
		}
		idx := int(wi) % sec.Words.Len()
		c := snap.Clone()
		if err := c.MutateWord(sec.Name, idx, val); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Restore(m, io, snap); err != nil {
			t.Fatalf("restore of the original: %v", err)
		}
		if err := snapshot.Restore(m, io, c); err != nil {
			return
		}
		want := c.Digest()
		if strings.HasPrefix(sec.Name, "vcpu/") && idx == sec.Words.Len()-1 {
			want = snap.Digest()
		}
		if got := snapshot.Capture(m, io).Digest(); got != want {
			t.Fatalf("%s word %d = %#x: restore accepted but re-capture digest %#x, want %#x", sec.Name, idx, val, got, want)
		}
	})
}
