package vmcs

import "fmt"

// PointerXlat translates a guest-physical pointer found in a VMCS field
// into the address space one level down (L1-physical → host-physical when
// building vmcs02 from vmcs12).
type PointerXlat func(f Field, gpa uint64) (uint64, error)

// ForcedControls are execution controls the host hypervisor imposes on
// vmcs02 regardless of what L1 asked for in vmcs12 (§2.1: "L0 configures
// vmcs02 to ensure access to these resources trigger a VM trap,
// regardless of the configuration set by L1").
type ForcedControls struct {
	Pin      uint64
	ForceMSR []uint32 // MSRs that must keep trapping even if L1 allows them
}

// TransformStats reports the work a transform performed, for cost
// accounting (the paper's Table 1 charges 12.45% of a nested exit to
// these transformations).
type TransformStats struct {
	Fields   int // scalar fields copied
	Pointers int // guest-physical pointers translated
}

// ToPhysical builds/refreshes dst (vmcs02) from src (vmcs12): guest state
// and entry information are copied, pointer fields are translated with
// xlat, and execution controls are merged with the forced set. Host-state
// fields of dst are left alone — they belong to L0 and are set when L0
// prepares the VMCS. The EPT pointer is also left alone: it names the
// composed shadow EPT, which the nested logic maintains separately.
func ToPhysical(dst, src *VMCS, xlat PointerXlat, forced ForcedControls) (TransformStats, error) {
	var st TransformStats
	for _, f := range FieldsOfClass(ClassGuest) {
		dst.Write(f, src.Read(f))
		st.Fields++
	}
	for _, f := range FieldsOfClass(ClassEntry) {
		dst.Write(f, src.Read(f))
		st.Fields++
	}
	for _, f := range FieldsOfClass(ClassControl) {
		v := src.Read(f)
		if f == PinControls {
			v |= forced.Pin
		}
		dst.Write(f, v)
		st.Fields++
	}
	for _, f := range FieldsOfClass(ClassPointer) {
		if f == EPTPointer || f == VMCSLinkPtr {
			continue // owned by the nested logic / hardware
		}
		gpa := src.Read(f)
		if gpa == 0 {
			dst.Write(f, 0)
			continue
		}
		hpa, err := xlat(f, gpa)
		if err != nil {
			return st, fmt.Errorf("vmcs transform %s→%s: field %s: %w", src.Name, dst.Name, f, err)
		}
		dst.Write(f, hpa)
		st.Pointers++
	}
	// MSR bitmap semantics: union of what L1 wants trapped and what L0
	// forces (L0 needs these exits for its own virtualization).
	*dst.exitMSRs = append((*dst.exitMSRs)[:0], *src.exitMSRs...)
	for _, a := range forced.ForceMSR {
		dst.exitMSRs.add(a)
	}
	src.ClearDirty()
	return st, nil
}

// ToVirtual reflects guest-visible state back from dst-level hardware
// (vmcs02) into the shadow copy L1 observes (vmcs12) after a nested VM
// exit: guest state and exit information. Pointer and control fields are
// L1's own values and are not touched.
func ToVirtual(dst, src *VMCS) TransformStats {
	var st TransformStats
	for _, f := range FieldsOfClass(ClassGuest) {
		dst.Write(f, src.Read(f))
		st.Fields++
	}
	for _, f := range FieldsOfClass(ClassExitInfo) {
		dst.Write(f, src.Read(f))
		st.Fields++
	}
	src.ClearDirty()
	return st
}
