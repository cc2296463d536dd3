package vmcs

import (
	"errors"
	"math/bits"
	"testing"
	"testing/quick"

	"svtsim/internal/allocs"
	"svtsim/internal/isa"
	"svtsim/internal/qcheck"
	"svtsim/internal/race"
)

func TestNewDefaults(t *testing.T) {
	v := New("vmcs01")
	if v.Read(SVtVisor) != InvalidContext || v.Read(SVtVM) != InvalidContext || v.Read(SVtNested) != InvalidContext {
		t.Fatal("SVt fields must default to the invalid context")
	}
	if v.Read(VMCSLinkPtr) != ^uint64(0) {
		t.Fatal("link pointer must default to -1")
	}
	if v.Read(GuestRIP) != 0 {
		t.Fatal("fields must default to zero")
	}
}

func TestReadWriteDirty(t *testing.T) {
	v := New("x")
	if v.Dirty(GuestRIP) {
		t.Fatal("fresh VMCS should be clean")
	}
	v.Write(GuestRIP, 0x401000)
	if v.Read(GuestRIP) != 0x401000 {
		t.Fatal("read back mismatch")
	}
	if !v.Dirty(GuestRIP) || dirtyCount(v) != 1 {
		t.Fatal("dirtiness not tracked")
	}
	v.ClearDirty()
	if v.Dirty(GuestRIP) || dirtyCount(v) != 0 {
		t.Fatal("ClearDirty did not clear")
	}
}

// dirtyCount reports the number of dirty fields.
func dirtyCount(v *VMCS) (n int) {
	for _, w := range v.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestUnknownFieldPanics(t *testing.T) {
	v := New("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Read(NumFields + 5)
}

func TestFieldStrings(t *testing.T) {
	if GuestRIP.String() != "GUEST_RIP" {
		t.Fatalf("GuestRIP = %q", GuestRIP.String())
	}
	if SVtNested.String() != "SVT_NESTED" {
		t.Fatalf("SVtNested = %q", SVtNested.String())
	}
	if Field(9999).String() == "" {
		t.Fatal("unknown field must still render")
	}
}

func TestClassification(t *testing.T) {
	class := func(f Field) Class { return fieldTable[f].class }
	if class(GuestRIP) != ClassGuest || class(HostRIP) != ClassHost ||
		class(ExitReasonF) != ClassExitInfo || class(EPTPointer) != ClassPointer ||
		class(SVtVM) != ClassSVt || class(ProcControls) != ClassControl {
		t.Fatal("field classification wrong")
	}
	// Every field must appear in exactly one class list.
	seen := make(map[Field]bool)
	for c := ClassGuest; c <= ClassSVt; c++ {
		for _, f := range FieldsOfClass(c) {
			if seen[f] {
				t.Fatalf("field %s in two classes", f)
			}
			seen[f] = true
		}
	}
	if len(seen) != int(NumFields) {
		t.Fatalf("classified %d fields, want %d", len(seen), NumFields)
	}
}

func TestShadowableSubset(t *testing.T) {
	// Pointer fields and controls must never be shadowable (§2.2: the CPU
	// can only shadow fields that need no complicated handling).
	for _, f := range FieldsOfClass(ClassPointer) {
		if f.Shadowable() {
			t.Fatalf("pointer field %s marked shadowable", f)
		}
	}
	for _, f := range FieldsOfClass(ClassControl) {
		if f.Shadowable() {
			t.Fatalf("control field %s marked shadowable", f)
		}
	}
	if !GuestRIP.Shadowable() || !ExitReasonF.Shadowable() {
		t.Fatal("plain guest state and exit info should be shadowable")
	}
}

func TestShadowedAccess(t *testing.T) {
	v01 := New("vmcs01")
	v12 := New("vmcs12")
	if v01.ShadowedAccess(GuestRIP) {
		t.Fatal("no shadow configured: accesses must trap")
	}
	v01.ShadowEnabled = true
	v01.Shadow = v12
	if !v01.ShadowedAccess(GuestRIP) {
		t.Fatal("shadowable field with shadowing on must not trap")
	}
	if v01.ShadowedAccess(EPTPointer) {
		t.Fatal("pointer fields must trap even with shadowing on")
	}
}

func TestMSRBitmap(t *testing.T) {
	v := New("x")
	// No bitmap in use: everything exits.
	if !v.MSRExits(isa.MSRTSCDeadline) {
		t.Fatal("without a bitmap all MSRs must exit")
	}
	v.Write(ProcControls, ProcCtlUseMSRBitmap)
	if v.MSRExits(isa.MSRTSCDeadline) {
		t.Fatal("clean bitmap should not exit")
	}
	v.SetMSRExit(isa.MSRTSCDeadline)
	if !v.MSRExits(isa.MSRTSCDeadline) {
		t.Fatal("configured MSR must exit")
	}
}

func TestRecordLoadExitRoundTrip(t *testing.T) {
	v := New("x")
	e := isa.Exit{
		Reason:        isa.ExitMSRWrite,
		Qualification: uint64(isa.MSRTSCDeadline),
		InstrLen:      2,
		GuestPA:       0xFE001000,
		Vector:        33,
		Value:         0x1234,
	}
	v.RecordExit(e)
	got := isa.Exit{
		Reason:        isa.ExitReason(v.Read(ExitReasonF)),
		Qualification: v.Read(ExitQualification),
		InstrLen:      v.Read(ExitInstrLen),
		GuestPA:       v.Read(GuestPhysAddr),
		Vector:        int(uint32(v.Read(ExitIntrInfo))),
		Value:         v.Read(ExitValueAux),
	}
	if got != e {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
}

func xlatAdd(delta uint64) PointerXlat {
	return func(f Field, gpa uint64) (uint64, error) { return gpa + delta, nil }
}

func TestToPhysicalCopiesGuestState(t *testing.T) {
	v12, v02 := New("vmcs12"), New("vmcs02")
	v12.Write(GuestRIP, 0xABC)
	v12.Write(GuestCR3, 0x1000)
	v02.Write(HostRIP, 0x50) // sentinel for host state preservation
	st, err := ToPhysical(v02, v12, xlatAdd(0), ForcedControls{})
	if err != nil {
		t.Fatal(err)
	}
	if v02.Read(GuestRIP) != 0xABC || v02.Read(GuestCR3) != 0x1000 {
		t.Fatal("guest state not copied")
	}
	if v02.Read(HostRIP) != 0x50 {
		t.Fatal("host state must be preserved")
	}
	if st.Fields == 0 {
		t.Fatal("stats must count copied fields")
	}
}

func TestToPhysicalTranslatesPointers(t *testing.T) {
	v12, v02 := New("vmcs12"), New("vmcs02")
	v12.Write(MSRBitmapAddr, 0x3000)
	v12.Write(VirtualAPICPage, 0x5000)
	v12.Write(EPTPointer, 0x7777) // must NOT be copied/translated
	st, err := ToPhysical(v02, v12, xlatAdd(0x100000), ForcedControls{})
	if err != nil {
		t.Fatal(err)
	}
	if v02.Read(MSRBitmapAddr) != 0x103000 || v02.Read(VirtualAPICPage) != 0x105000 {
		t.Fatal("pointers not translated")
	}
	if v02.Read(EPTPointer) == 0x7777 {
		t.Fatal("EPT pointer must be owned by the nested logic, not copied")
	}
	if st.Pointers != 2 {
		t.Fatalf("translated %d pointers, want 2", st.Pointers)
	}
}

func TestToPhysicalZeroPointersSkipped(t *testing.T) {
	v12, v02 := New("vmcs12"), New("vmcs02")
	st, err := ToPhysical(v02, v12, func(f Field, gpa uint64) (uint64, error) {
		t.Fatal("xlat must not be called for zero pointers")
		return 0, nil
	}, ForcedControls{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pointers != 0 {
		t.Fatal("no pointers should be translated")
	}
}

func TestToPhysicalXlatError(t *testing.T) {
	v12, v02 := New("vmcs12"), New("vmcs02")
	v12.Write(MSRBitmapAddr, 0x3000)
	wantErr := errors.New("unmapped")
	_, err := ToPhysical(v02, v12, func(f Field, gpa uint64) (uint64, error) { return 0, wantErr }, ForcedControls{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestToPhysicalForcedControls(t *testing.T) {
	v12, v02 := New("vmcs12"), New("vmcs02")
	v12.Write(PinControls, 0)
	v12.Write(ProcControls, ProcCtlUseMSRBitmap)
	v12.SetMSRExit(0x123)
	forced := ForcedControls{
		Pin:      PinCtlExtIntExit,
		ForceMSR: []uint32{isa.MSRTSCDeadline},
	}
	if _, err := ToPhysical(v02, v12, xlatAdd(0), forced); err != nil {
		t.Fatal(err)
	}
	if v02.Read(PinControls)&PinCtlExtIntExit == 0 {
		t.Fatal("forced pin control lost")
	}
	if v02.Read(ProcControls) != ProcCtlUseMSRBitmap {
		t.Fatal("L1's proc controls must pass through unchanged")
	}
	if !v02.MSRExits(0x123) {
		t.Fatal("L1's trapped MSR must keep trapping")
	}
	if !v02.MSRExits(isa.MSRTSCDeadline) {
		t.Fatal("L0-forced MSR must trap even though L1 allowed it")
	}
}

func TestToVirtualReflectsExitInfo(t *testing.T) {
	v02, v12 := New("vmcs02"), New("vmcs12")
	v02.RecordExit(isa.Exit{Reason: isa.ExitCPUID, InstrLen: 2})
	v02.Write(GuestRIP, 0x999)
	v12.Write(ProcControls, 0xDEAD) // L1's own controls must survive
	st := ToVirtual(v12, v02)
	if v12.Read(ExitReasonF) != uint64(isa.ExitCPUID) || v12.Read(GuestRIP) != 0x999 {
		t.Fatal("exit info / guest state not reflected")
	}
	if v12.Read(ProcControls) != 0xDEAD {
		t.Fatal("controls must not be touched by ToVirtual")
	}
	if st.Fields == 0 {
		t.Fatal("stats must count fields")
	}
}

// Property: a ToPhysical followed by ToVirtual restores every guest-state
// field of the virtual VMCS (the transforms are inverse on that class).
func TestTransformRoundTripProperty(t *testing.T) {
	prop := func(vals []uint32) bool {
		v12, v02 := New("vmcs12"), New("vmcs02")
		gs := FieldsOfClass(ClassGuest)
		for i, f := range gs {
			if i < len(vals) {
				v12.Write(f, uint64(vals[i]))
			}
		}
		if _, err := ToPhysical(v02, v12, xlatAdd(0x1000), ForcedControls{}); err != nil {
			return false
		}
		// Simulate hardware running and exiting without changing state.
		ToVirtual(v12, v02)
		for i, f := range gs {
			want := uint64(0)
			if i < len(vals) {
				want = uint64(vals[i])
			}
			if v12.Read(f) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcheck.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// The transforms run on every nested exit; after the first call has
// sized the destination's maps, they allocate nothing.
func TestTransformsAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	v12, v02 := New("vmcs12"), New("vmcs02")
	v12.Write(MSRBitmapAddr, 0x2000)
	v12.Write(VirtualAPICPage, 0x3000)
	v12.SetMSRExit(0x123)
	forced := ForcedControls{Pin: PinCtlExtIntExit, ForceMSR: []uint32{isa.MSRTSCDeadline}}
	xlat := xlatAdd(0x1000)
	phys := allocs.PerRun(200, func() {
		if _, err := ToPhysical(v02, v12, xlat, forced); err != nil {
			t.Fatal(err)
		}
	})
	virt := allocs.PerRun(200, func() { ToVirtual(v12, v02) })
	if phys != 0 || virt != 0 {
		t.Fatalf("allocs per call: ToPhysical %.2f, ToVirtual %.2f; want 0", phys, virt)
	}
}
