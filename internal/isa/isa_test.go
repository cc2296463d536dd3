package isa

import "testing"

func TestRegStrings(t *testing.T) {
	if RAX.String() != "rax" || R15.String() != "r15" || RIP.String() != "rip" {
		t.Fatal("register names wrong")
	}
	if Reg(200).String() == "" {
		t.Fatal("unknown register must still render")
	}
}

func TestIsGPR(t *testing.T) {
	for r := RAX; r < NumGPR; r++ {
		if !r.IsGPR() {
			t.Fatalf("%v should be a GPR", r)
		}
	}
	for _, r := range []Reg{RSP, RIP, RFLAGS, CR0, CR3} {
		if r.IsGPR() {
			t.Fatalf("%v should not be a GPR", r)
		}
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpCPUID:     "cpuid",
		OpWRMSR:     "wrmsr",
		OpMMIOWrite: "mmio-write",
		OpVMResume:  "vmresume",
		OpCtxtLd:    "ctxtld",
		OpMwait:     "mwait",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d = %q, want %q", op, op.String(), want)
		}
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op must render")
	}
}

func TestExitReasonStrings(t *testing.T) {
	cases := map[ExitReason]string{
		ExitCPUID:        "CPUID",
		ExitEPTMisconfig: "EPT_MISCONFIG",
		ExitMSRWrite:     "MSR_WRITE",
		ExitAPICWrite:    "APIC_WRITE",
		ExitSVTBlocked:   "SVT_BLOCKED",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d = %q, want %q", r, r.String(), want)
		}
	}
	// The name table must cover every defined reason.
	for r := ExitReason(0); r < NumExitReasons; r++ {
		if r.String() == "" || r.String()[0] == 'E' && r.String()[1] == 'X' && r.String()[2] == 'I' && r.String()[3] == 'T' && r.String()[4] == '(' {
			t.Errorf("reason %d missing a name", r)
		}
	}
}

func TestExitString(t *testing.T) {
	var e *Exit
	if e.String() != "<nil exit>" {
		t.Fatal("nil exit render")
	}
	e = &Exit{Reason: ExitCPUID, Qualification: 7}
	if e.String() == "" {
		t.Fatal("exit render empty")
	}
}

func TestInstrConstructors(t *testing.T) {
	if CPUID(3).Op != OpCPUID || CPUID(3).Leaf != 3 {
		t.Fatal("CPUID constructor")
	}
	in := WRMSR(MSRTSCDeadline, 42)
	if in.Op != OpWRMSR || in.MSRAddr != MSRTSCDeadline || in.Val != 42 {
		t.Fatal("WRMSR constructor")
	}
	if RDMSR(5).Op != OpRDMSR {
		t.Fatal("RDMSR constructor")
	}
	if MMIOWrite(0x10, 1).Op != OpMMIOWrite {
		t.Fatal("MMIO constructor")
	}
	if HLT().Op != OpHLT {
		t.Fatal("HLT constructor")
	}
}
