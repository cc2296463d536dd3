package cpu

import (
	"testing"
	"testing/quick"

	"svtsim/internal/allocs"
	"svtsim/internal/isa"
	"svtsim/internal/qcheck"
	"svtsim/internal/race"
)

func TestRegFileReadWrite(t *testing.T) {
	rf := NewRegFile(3, 8)
	rf.Write(0, isa.RAX, 111)
	rf.Write(1, isa.RAX, 222)
	rf.Write(2, isa.RAX, 333)
	if rf.Read(0, isa.RAX) != 111 || rf.Read(1, isa.RAX) != 222 || rf.Read(2, isa.RAX) != 333 {
		t.Fatal("contexts must have isolated architectural state")
	}
	if err := rf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegFileRenameRecycles(t *testing.T) {
	rf := NewRegFile(2, 4)
	for i := 0; i < 100; i++ {
		rf.Write(0, isa.RBX, uint64(i))
	}
	if rf.Read(0, isa.RBX) != 99 {
		t.Fatal("last write must win")
	}
	if err := rf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegFileNoSpare(t *testing.T) {
	rf := NewRegFile(1, 0)
	rf.Write(0, isa.RCX, 7)
	if rf.Read(0, isa.RCX) != 7 {
		t.Fatal("write without spare regs must still work")
	}
	if err := rf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegFileSnapshotRoundTrip(t *testing.T) {
	rf := NewRegFile(2, 8)
	var want [isa.NumGPR]uint64
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		want[r] = uint64(r) * 10
		rf.Write(1, r, want[r])
	}
	got := rf.ReadAll(1)
	if got != want {
		t.Fatalf("snapshot mismatch: %v vs %v", got, want)
	}
	rf.WriteAll(0, got)
	if rf.ReadAll(0) != want {
		t.Fatal("WriteAll/ReadAll round trip failed")
	}
}

func TestRegFilePanicsOnBadInput(t *testing.T) {
	rf := NewRegFile(1, 0)
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { rf.Read(5, isa.RAX) })
	mustPanic(func() { rf.Read(0, isa.RIP) })
	mustPanic(func() { rf.Write(0, isa.RSP, 1) })
}

// Property: any interleaving of writes across contexts preserves per-
// context last-write-wins semantics and the rename invariants.
func TestRegFileSemanticsProperty(t *testing.T) {
	type w struct {
		Ctx uint8
		Reg uint8
		Val uint64
	}
	prop := func(writes []w) bool {
		const nCtx = 3
		rf := NewRegFile(nCtx, 6)
		ref := make([][isa.NumGPR]uint64, nCtx)
		for _, x := range writes {
			ctx := int(x.Ctx) % nCtx
			r := isa.Reg(x.Reg) % isa.NumGPR
			rf.Write(ctx, r, x.Val)
			ref[ctx][r] = x.Val
		}
		if rf.CheckInvariants() != nil {
			return false
		}
		for ctx := 0; ctx < nCtx; ctx++ {
			if rf.ReadAll(ctx) != ref[ctx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcheck.Config(t, 150)); err != nil {
		t.Fatal(err)
	}
}

// renameGolden is the physical register each write of
// TestRegFileRenameOrderGolden lands in, recorded from the original
// sliding free-list implementation. The free list is a FIFO: a write
// takes the oldest free register and returns the one it replaces.
var renameGolden = []int{
	45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
	65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 1, 11, 6, 4, 42, 14, 25, 47, 18, 15,
	51, 35, 24, 17, 37, 28, 21, 56, 27, 59, 8, 23, 58, 52, 9, 19, 34, 55, 38, 66,
	40, 39, 62, 30, 41, 2, 70, 0, 4, 20, 1, 36, 35, 46, 65, 3, 50, 16, 7, 29,
	45, 5, 26, 44, 21, 74, 64, 37, 61, 72, 59, 33, 18, 32, 14, 55, 57, 23, 38, 27,
	52, 51, 67, 9, 11, 73, 58, 71, 2, 56, 30, 49, 45, 40, 53, 12, 43, 65, 8, 10,
	29, 60, 25, 5, 36, 54, 20, 18, 64, 47, 74, 46, 6, 39, 37, 9, 35, 17, 38, 73,
	51, 27, 59, 24, 67, 40, 61, 34, 14, 52, 4, 72, 68, 22, 56, 60, 53, 5, 10, 0,
	16, 71, 21, 49, 55, 64, 7, 35, 69, 2, 26, 43, 65, 23, 27, 39, 70, 19, 24, 33,
	14, 51, 61, 47, 13, 29, 58, 48, 25, 72, 60, 12, 8, 52, 49, 0, 30, 3, 45, 34,
}

// The rename maps must evolve exactly as they always have: a machine's
// register file is part of its state digest.
func TestRegFileRenameOrderGolden(t *testing.T) {
	rf := NewRegFile(3, 2*int(isa.NumGPR))
	x := uint64(0x9E3779B97F4A7C15) // xorshift64 state
	for i, want := range renameGolden {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ctx := int(x % 3)
		r := isa.Reg((x >> 8) % uint64(isa.NumGPR))
		rf.Write(ctx, r, x)
		if got := rf.rmap[ctx][r]; got != want {
			t.Fatalf("write %d (ctx %d %s) renamed to p%d, want p%d", i, ctx, r, got, want)
		}
		if err := rf.CheckInvariants(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if rf.Read(ctx, r) != x {
			t.Fatalf("write %d: value lost", i)
		}
	}
}

func TestRegFileWriteAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	rf := NewRegFile(3, 2*int(isa.NumGPR))
	// Each run makes many writes, so an amortized reallocation shows
	// as a fraction of a malloc per run.
	const writes = 1000
	got := allocs.PerRun(20, func() {
		for i := uint64(0); i < writes; i++ {
			rf.Write(int(i%3), isa.Reg(i%uint64(isa.NumGPR)), i)
		}
	})
	if got != 0 {
		t.Fatalf("%d RegFile.Writes allocate %.2f times, want 0", writes, got)
	}
}
