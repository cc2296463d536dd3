package ept

import (
	"errors"
	"reflect"
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

func TestInvalidateBumpsEpoch(t *testing.T) {
	e := New("x")
	before := e.Epoch()
	e.Invalidate()
	if e.Epoch() == before {
		t.Fatal("epoch must change")
	}
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
	var first State
	for run := 0; run < 20; run++ {
		shadow, err := Compose("ept02", inner, outer)
		if err != nil {
			t.Fatal(err)
		}
		st := shadow.SaveState()
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

func TestDenseStorageBounds(t *testing.T) {
	e := New("t")
	if err := e.Map(maxGPA-pg, 0, 2*pg, PermR); err == nil {
		t.Fatal("a map past maxGPA must fail")
	}
	if err := e.Map(2*pg, 0x9000, pg, PermR); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(2*pg, 0xA000, pg, PermRW); err != nil { // remap in place
		t.Fatal(err)
	}
	if e.MappedPages() != 1 {
		t.Fatalf("mapped = %d after a remap, want 1", e.MappedPages())
	}
	if hpa, err := e.Translate(2*pg+8, PermW); err != nil || hpa != 0xA008 {
		t.Fatalf("remapped translate = %#x, %v", hpa, err)
	}
	if _, err := e.Translate(1<<30, PermR); err == nil {
		t.Fatal("a frame past the table must violate")
	}
	if err := e.Unmap(0, 1<<30); err != nil { // reaches past the table
		t.Fatal(err)
	}
	if e.MappedPages() != 0 {
		t.Fatalf("mapped = %d after unmapping everything", e.MappedPages())
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
		for i, p := range pagePairs {
			ip := uint64(i)
			mp := uint64(p)
			if err := inner.Map(ip*pg, mp*pg, pg, PermRW); err != nil {
				return false
			}
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

func TestViewScalars(t *testing.T) {
	host := mem.New(1 << 20)
	tbl := New("e")
	if err := tbl.Map(0, 0, 2*pg, PermRW); err != nil {
		t.Fatal(err)
	}
	v := NewView(host, tbl)
	if err := v.WriteU64(pg-4, 0x1122334455667788); err != nil { // straddles pages
		t.Fatal(err)
	}
	got, err := v.ReadU64(pg - 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1122334455667788 {
		t.Fatalf("u64 = %#x", got)
	}
	if err := v.WriteU16(0, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.ReadU16(0); x != 0xABCD {
		t.Fatalf("u16 = %#x", x)
	}
	if err := v.WriteU32(8, 0xFEEDFACE); err != nil {
		t.Fatal(err)
	}
	if x, _ := v.ReadU32(8); x != 0xFEEDFACE {
		t.Fatalf("u32 = %#x", x)
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
