package ept

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"svtsim/internal/mem"
	"svtsim/internal/qcheck"
)

const pg = mem.PageSize

func TestMapTranslate(t *testing.T) {
	e := New("ept01")
	if err := e.Map(0x1000, 0x9000, 2*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	hpa, err := e.Translate(0x1234, PermR)
	if err != nil {
		t.Fatal(err)
	}
	if hpa != 0x9234 {
		t.Fatalf("hpa = %#x, want 0x9234", hpa)
	}
	hpa, err = e.Translate(0x2000, PermW)
	if err != nil {
		t.Fatal(err)
	}
	if hpa != 0xA000 {
		t.Fatalf("hpa = %#x, want 0xA000", hpa)
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	e := New("x")
	if err := e.Map(0x1001, 0x9000, pg, PermRW); err == nil {
		t.Fatal("unaligned gpa must fail")
	}
	if err := e.Map(0x1000, 0x9001, pg, PermRW); err == nil {
		t.Fatal("unaligned hpa must fail")
	}
	if err := e.Map(0x1000, 0x9000, 100, PermRW); err == nil {
		t.Fatal("unaligned size must fail")
	}
	if err := e.Map(0x1000, 0x9000, 0, PermRW); err == nil {
		t.Fatal("zero size must fail")
	}
}

func TestViolation(t *testing.T) {
	e := New("x")
	_, err := e.Translate(0x5000, PermR)
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("want ViolationError, got %v", err)
	}
	if v.GPA != 0x5000 {
		t.Fatalf("violation gpa = %#x", v.GPA)
	}
}

func TestPermissionEnforced(t *testing.T) {
	e := New("x")
	if err := e.Map(0, 0, pg, PermR); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Translate(0x10, PermR); err != nil {
		t.Fatal("read should be allowed")
	}
	_, err := e.Translate(0x10, PermW)
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("write should violate, got %v", err)
	}
}

func TestMisconfig(t *testing.T) {
	e := New("x")
	if err := e.MapMisconfig(0xFE000000, 0x1000, 7); err != nil {
		t.Fatal(err)
	}
	_, err := e.Translate(0xFE000010, PermW)
	var m *MisconfigError
	if !errors.As(err, &m) {
		t.Fatalf("want MisconfigError, got %v", err)
	}
	if m.Dev != 7 {
		t.Fatalf("dev = %d", m.Dev)
	}
	if _, ok := e.DeviceAt(0xFE000FFF); !ok {
		t.Fatal("DeviceAt should find region end")
	}
	if _, ok := e.DeviceAt(0xFE001000); ok {
		t.Fatal("DeviceAt should not find past region")
	}
	if err := e.MapMisconfig(0, 0, 1); err == nil {
		t.Fatal("empty misconfig region must fail")
	}
}

func TestUnmap(t *testing.T) {
	e := New("x")
	if err := e.Map(0, 0x8000, 4*pg, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(pg, 2*pg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Translate(0, PermR); err != nil {
		t.Fatal("page 0 should remain")
	}
	if _, err := e.Translate(pg, PermR); err == nil {
		t.Fatal("page 1 should be gone")
	}
	if _, err := e.Translate(3*pg, PermR); err != nil {
		t.Fatal("page 3 should remain")
	}
	if err := e.Unmap(1, pg); err == nil {
		t.Fatal("unaligned unmap must fail")
	}
}

// Unmap removes mappings over [gpa, gpa+size). The model never unmaps;
// it lives here as the other half of the map API that FuzzTableOps
// checks against the per-frame model.
func (t *Table) Unmap(gpa, size uint64) error {
	if gpa%mem.PageSize != 0 || size%mem.PageSize != 0 {
		return fmt.Errorf("ept %s: unaligned unmap", t.name)
	}
	if gpa+size < gpa {
		return fmt.Errorf("ept %s: unmap gpa=%#x size=%#x wraps the address space", t.name, gpa, size)
	}
	if size == 0 {
		return nil
	}
	lo, hi := gpa/mem.PageSize, (gpa+size)/mem.PageSize
	var kept []run
	t.mapped = 0
	for _, r := range t.runs {
		pieces := []run{r}
		if r.gfn < hi && lo < r.end() { // keep what lies outside [lo, hi)
			pieces = nil
			if r.gfn < lo {
				pieces = append(pieces, run{gfn: r.gfn, n: lo - r.gfn, hostPage: r.hostPage, perm: r.perm})
			}
			if r.end() > hi {
				pieces = append(pieces, run{gfn: hi, n: r.end() - hi, hostPage: r.hostPage + hi - r.gfn, perm: r.perm})
			}
		}
		for _, p := range pieces {
			kept = append(kept, p)
			t.mapped += int(p.n)
		}
	}
	t.runs = kept
	return nil
}

func TestWalkCount(t *testing.T) {
	e := New("x")
	_ = e.Map(0, 0, pg, PermR)
	before := e.Walks()
	_, _ = e.Translate(0, PermR)
	_, _ = e.Translate(0x5000, PermR)
	if e.Walks() != before+2 {
		t.Fatalf("walks = %d, want %d", e.Walks(), before+2)
	}
}

func TestCompose(t *testing.T) {
	// inner: L2 gpa 0x0000 -> L1 gpa 0x2000 (rw)
	// outer: L1 gpa 0x2000 -> hpa 0x7000 (r only)
	inner := New("ept12")
	outer := New("ept01")
	if err := inner.Map(0, 0x2000, pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := outer.Map(0x2000, 0x7000, pg, PermR); err != nil {
		t.Fatal(err)
	}
	shadow, err := Compose("ept02", inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	hpa, err := shadow.Translate(0x123, PermR)
	if err != nil {
		t.Fatal(err)
	}
	if hpa != 0x7123 {
		t.Fatalf("hpa = %#x want 0x7123", hpa)
	}
	// Permission intersection: write must violate (outer is read-only).
	if _, err := shadow.Translate(0x123, PermW); err == nil {
		t.Fatal("composed perms must intersect")
	}
}

func TestComposePreservesInnerDevices(t *testing.T) {
	inner := New("ept12")
	outer := New("ept01")
	if err := inner.MapMisconfig(0xFE000000, pg, 9); err != nil {
		t.Fatal(err)
	}
	shadow, err := Compose("ept02", inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shadow.Translate(0xFE000000, PermW)
	var m *MisconfigError
	if !errors.As(err, &m) || m.Dev != 9 {
		t.Fatalf("inner device region lost in composition: %v", err)
	}
}

func TestComposeInnerPageOnOuterDevice(t *testing.T) {
	inner := New("ept12")
	outer := New("ept01")
	if err := inner.Map(0, 0xFE000000, pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := outer.MapMisconfig(0xFE000000, pg, 3); err != nil {
		t.Fatal(err)
	}
	shadow, err := Compose("ept02", inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shadow.Translate(0x10, PermR)
	var m *MisconfigError
	if !errors.As(err, &m) || m.Dev != 3 {
		t.Fatalf("inner RAM over outer device must trap as device %v", err)
	}
}

// Inner pages that land on an outer device window become device regions
// of the composed table. Compose walks the inner table in guest-frame
// order, so those regions, and the snapshot state that lists them in
// installation order, are the same on every run.
func TestComposeDeviceOrderDeterministic(t *testing.T) {
	inner := New("ept12")
	outer := New("ept01")
	const n = 8
	for i := uint64(0); i < n; i++ {
		if err := inner.Map(i*pg, 0xFE000000+i*pg, pg, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if err := outer.MapMisconfig(0xFE000000, n*pg, 3); err != nil {
		t.Fatal(err)
	}
	var first tableState
	for run := 0; run < 20; run++ {
		shadow, err := Compose("ept02", inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		st := stateOf(shadow)
		if run == 0 {
			first = st
			continue
		}
		if !reflect.DeepEqual(st, first) {
			t.Fatalf("compose %d: state %+v differs from the first %+v", run, st, first)
		}
	}
	if len(first.Devs) != n || len(first.Pages) != 0 {
		t.Fatalf("want %d device regions and no pages, got %+v", n, first)
	}
	for i, d := range first.Devs {
		if d.Base != uint64(i)*pg {
			t.Fatalf("device region %d at %#x, want guest-frame order", i, d.Base)
		}
	}
}

func TestStorageBounds(t *testing.T) {
	e := New("t")
	if err := e.Map(maxGPA-pg, 0, 2*pg, PermR); err == nil {
		t.Fatal("a map past maxGPA must fail")
	}
	if err := e.Map(2*pg, 0x9000, pg, PermR); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(2*pg, 0xA000, pg, PermRW); err == nil { // remap in place
		t.Fatal("a remap in place must fail")
	}
	if e.mapped != 1 {
		t.Fatalf("mapped = %d after a rejected remap, want 1", e.mapped)
	}
	if hpa, err := e.Translate(2*pg+8, PermR); err != nil || hpa != 0x9008 {
		t.Fatalf("translate after a rejected remap = %#x, %v", hpa, err)
	}
	if _, err := e.Translate(1<<30, PermR); err == nil {
		t.Fatal("a frame past the table must violate")
	}
	if err := e.Unmap(0, 1<<30); err != nil { // reaches past the table
		t.Fatal(err)
	}
	if e.mapped != 0 {
		t.Fatalf("mapped = %d after unmapping everything", e.mapped)
	}
}

// A range whose end wraps past 2^64 is rejected, naming the table; it
// used to unmap nothing, or install a device window nothing could hit.
func TestWrappingRangesRejected(t *testing.T) {
	e := New("ept12")
	if err := e.Map(0, 0, 2*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	top := ^uint64(0) &^ (pg - 1)
	err := e.Unmap(pg, top)
	if err == nil || !strings.Contains(err.Error(), "ept12") {
		t.Fatalf("wrapping unmap: err = %v, want an error naming ept12", err)
	}
	if e.mapped != 2 {
		t.Fatalf("mapped = %d after a rejected unmap, want 2", e.mapped)
	}
	err = e.MapMisconfig(top, 2*pg, 5)
	if err == nil || !strings.Contains(err.Error(), "ept12") {
		t.Fatalf("wrapping misconfig: err = %v, want an error naming ept12", err)
	}
	if len(e.devs) != 0 {
		t.Fatalf("device regions = %d after a rejected misconfig", len(e.devs))
	}
	if err := e.Unmap(0, 1<<30); err != nil { // past the mapped range, no wrap
		t.Fatal(err)
	}
	if e.mapped != 0 {
		t.Fatalf("mapped = %d after unmapping everything", e.mapped)
	}
}

// A 64 MB map is one extent, and stays one through SaveWords/LoadWords.
func TestLargeMapOneExtent(t *testing.T) {
	e := New("ept01")
	if err := e.Map(0, 1<<32, 64<<20, PermRWX); err != nil {
		t.Fatal(err)
	}
	if len(e.runs) != 1 || e.mapped != 64<<20/pg {
		t.Fatalf("runs = %d mapped = %d, want 1 run of %d pages", len(e.runs), e.mapped, 64<<20/pg)
	}
	st := saveWords(e)
	r := New("ept01")
	if err := loadWords(r, save(e)); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != 1 || !reflect.DeepEqual(r.runs, e.runs) || r.mapped != e.mapped {
		t.Fatalf("restored runs %+v, want %+v", r.runs, e.runs)
	}
	if !reflect.DeepEqual(saveWords(r), st) {
		t.Fatal("restored state differs from the saved one")
	}
}

// Composing a single-run ept12 over a single-run ept01 yields a single
// run, even with a device window elsewhere in ept01.
func TestComposeOneExtent(t *testing.T) {
	inner, outer := New("ept12"), New("ept01")
	if err := inner.Map(0, 64<<20, 32<<20, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := outer.Map(0, 1<<32, 128<<20, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := outer.MapMisconfig(0xFE000000, pg, 1); err != nil {
		t.Fatal(err)
	}
	shadow, err := Compose("ept02", inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	want := []run{{gfn: 0, n: 32 << 20 / pg, hostPage: (1<<32 + 64<<20) / pg, perm: PermRW}}
	if !reflect.DeepEqual(shadow.runs, want) || shadow.mapped != 32<<20/pg {
		t.Fatalf("ept02 runs %+v, want %+v", shadow.runs, want)
	}
}

// An outer device window inside the frames an inner run crosses splits
// the composed run. The page whose first byte lies in the window traps;
// the window need not be page aligned.
func TestComposeSplitsAtOuterDevice(t *testing.T) {
	inner, outer := New("ept12"), New("ept01")
	if err := inner.Map(0, 0, 8*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := outer.Map(0, 0x100000, 8*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := outer.MapMisconfig(4*pg-100, 200, 6); err != nil {
		t.Fatal(err)
	}
	shadow, err := Compose("ept02", inner, outer)
	if err != nil {
		t.Fatal(err)
	}
	want := []run{{gfn: 0, n: 4, hostPage: 0x100, perm: PermRW}, {gfn: 5, n: 3, hostPage: 0x105, perm: PermRW}}
	if !reflect.DeepEqual(shadow.runs, want) {
		t.Fatalf("ept02 runs %+v, want %+v", shadow.runs, want)
	}
	if got := stateOf(shadow).Devs; !reflect.DeepEqual(got, []devRow{{Base: 4 * pg, Size: pg, Dev: 6}}) {
		t.Fatalf("ept02 devices %+v, want one page at frame 4", got)
	}
}

// A map over a mapped run or a device window fails naming the table and
// leaves the table as it was; a map next to a run extends it.
func TestMapRejectsOverlap(t *testing.T) {
	e := New("x")
	if err := e.Map(0, 0x100000, 8*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := e.MapMisconfig(16*pg+0x800, 0x100, 5); err != nil {
		t.Fatal(err)
	}
	before := append([]run(nil), e.runs...)
	for _, c := range []struct{ gpa, size uint64 }{
		{3 * pg, 2 * pg},  // inside the run
		{7 * pg, 2 * pg},  // across its end
		{0, 8 * pg},       // the same range again
		{16 * pg, pg},     // the page holding the device window
		{12 * pg, 8 * pg}, // a range around the window
	} {
		err := e.Map(c.gpa, 0x900000, c.size, PermRW)
		if err == nil || !strings.Contains(err.Error(), "ept x:") || !strings.Contains(err.Error(), "overlaps") {
			t.Fatalf("Map(%#x, %#x) = %v, want an overlap error naming table x", c.gpa, c.size, err)
		}
		if !reflect.DeepEqual(e.runs, before) || e.mapped != 8 {
			t.Fatalf("rejected Map(%#x, %#x) changed the table: runs %+v mapped %d", c.gpa, c.size, e.runs, e.mapped)
		}
	}
	if err := e.Map(8*pg, 0x108000, 2*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if want := []run{{gfn: 0, n: 10, hostPage: 0x100, perm: PermRW}}; !reflect.DeepEqual(e.runs, want) || e.mapped != 10 {
		t.Fatalf("runs %+v mapped %d, want %+v and 10", e.runs, e.mapped, want)
	}
}

func TestComposeUnbackedInnerFails(t *testing.T) {
	inner := New("ept12")
	outer := New("ept01")
	if err := inner.Map(0, 0x2000, pg, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := Compose("ept02", inner, outer); err == nil {
		t.Fatal("composing over an unbacked outer page must fail")
	}
}

// Property: Translate(Map(gpa->hpa)) is the identity plus offset for every
// page in the mapped range.
func TestComposeMatchesSequentialWalk(t *testing.T) {
	prop := func(pagePairs []uint8) bool {
		inner := New("i")
		outer := New("o")
		// Build inner gpa page i -> L1 page p, outer L1 page p -> host page p+100.
		outerMapped := map[uint64]bool{}
		for i, p := range pagePairs {
			ip := uint64(i)
			mp := uint64(p)
			if err := inner.Map(ip*pg, mp*pg, pg, PermRW); err != nil {
				return false
			}
			if outerMapped[mp] {
				continue
			}
			outerMapped[mp] = true
			if err := outer.Map(mp*pg, (mp+100)*pg, pg, PermRW); err != nil {
				return false
			}
		}
		shadow, err := Compose("s", inner, outer)
		if err != nil {
			return false
		}
		for i := range pagePairs {
			gpa := uint64(i)*pg + 7
			want1, err := inner.Translate(gpa, PermR)
			if err != nil {
				return false
			}
			want, err := outer.Translate(want1, PermR)
			if err != nil {
				return false
			}
			got, err := shadow.Translate(gpa, PermR)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcheck.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestViewReadWrite(t *testing.T) {
	host := mem.New(1 << 20)
	tbl := New("e")
	if err := tbl.Map(0, 0x10000, 4*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	v := NewView(host, tbl)
	data := make([]byte, 3*pg)
	for i := range data {
		data[i] = byte(i)
	}
	// Cross-page guest write near a page boundary.
	if err := v.Write(pg-5, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.Read(pg-5, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	// Verify the bytes actually landed at the translated host address.
	hostByte := make([]byte, 1)
	if err := host.Read(0x10000+pg-5, hostByte); err != nil {
		t.Fatal(err)
	}
	if hostByte[0] != 0 {
		t.Fatalf("host byte = %d, want 0", hostByte[0])
	}
}

// Word-sized accesses through a view, as the virtqueue makes them,
// round-trip, including one that straddles a page boundary.
func TestViewScalars(t *testing.T) {
	host := mem.New(1 << 20)
	tbl := New("e")
	if err := tbl.Map(0, 0, 2*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	v := NewView(host, tbl)
	for _, at := range []uint64{pg - 4, 0, 8} { // the first straddles pages
		var w, r [8]byte
		binary.LittleEndian.PutUint64(w[:], 0x1122334455667788+at)
		if err := v.Write(at, w[:]); err != nil {
			t.Fatal(err)
		}
		if err := v.Read(at, r[:]); err != nil {
			t.Fatal(err)
		}
		if r != w {
			t.Fatalf("word at %#x = %x, want %x", at, r, w)
		}
	}
}

func TestViewErrors(t *testing.T) {
	host := mem.New(1 << 20)
	tbl := New("e")
	v := NewView(host, tbl)
	if err := v.Write(0, []byte{1}); err == nil {
		t.Fatal("unmapped write must fail")
	}
	_ = tbl.MapMisconfig(0x1000, pg, 1)
	err := v.Read(0x1000, make([]byte, 4))
	var m *MisconfigError
	if !errors.As(err, &m) {
		t.Fatalf("device read through view must misconfig, got %v", err)
	}
}

// The snapshot format keeps a word for an invalidation epoch the model
// no longer has: SaveWords writes it as zero, and a restore that finds
// it nonzero fails and leaves the table as it was.
func TestLoadWordsRejectsEpoch(t *testing.T) {
	e := New("ept02")
	if err := e.Map(0, 0x8000, 2*pg, PermRWX); err != nil {
		t.Fatal(err)
	}
	st := stateOf(e)
	if st.Epoch != 0 {
		t.Fatalf("SaveWords wrote epoch %d, want 0", st.Epoch)
	}
	before := saveWords(e)
	st.Pages = st.Pages[:1]
	st.Epoch = 3
	err := loadWords(e, st.words())
	if err == nil || !strings.Contains(err.Error(), "invalidation epoch") {
		t.Fatalf("LoadWords with epoch 3: err = %v, want an invalidation epoch error", err)
	}
	if !slices.Equal(saveWords(e), before) {
		t.Fatal("rejected LoadWords changed the table")
	}
}
