// Package cpu models one SMT core: multiple hardware contexts sharing a
// physical register file (reached through per-context rename maps), the
// VMX transition machinery (VM entry/exit with its register thunks), and
// the SVt extensions of the paper — fetch-target switching between
// contexts (stall/resume instead of context switches) and the
// ctxtld/ctxtst cross-context register access instructions.
package cpu

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/words"
)

// RegFile is the core's shared physical register file. Each hardware
// context reaches its architectural GPRs through its own rename map, as
// in SMT designs — which is precisely the property SVt exploits: one
// context can index another context's rename map to reach its registers
// without any memory traffic (§4: "SVt accesses the register renaming map
// of the target context to index into the appropriate physical register
// file entry").
type RegFile struct {
	phys []uint64
	// free is the rename free list as a FIFO ring. Every renaming write
	// takes one register and returns one, so the ring is always full:
	// the slot at head is the next to hand out and the one to refill.
	free []int
	head int
	rmap [][]int // [context][gpr] -> physical register index
}

// NewRegFile builds a register file for nCtx contexts with spare physical
// registers available for renaming.
func NewRegFile(nCtx, spare int) *RegFile {
	total := nCtx*int(isa.NumGPR) + spare
	rf := &RegFile{phys: make([]uint64, total), free: make([]int, 0, spare), rmap: make([][]int, nCtx)}
	next := 0
	for c := 0; c < nCtx; c++ {
		rf.rmap[c] = make([]int, isa.NumGPR)
		for r := 0; r < int(isa.NumGPR); r++ {
			rf.rmap[c][r] = next
			next++
		}
	}
	for ; next < total; next++ {
		rf.free = append(rf.free, next)
	}
	return rf
}

func (rf *RegFile) checkCtx(ctx int) {
	if ctx < 0 || ctx >= len(rf.rmap) {
		panic(fmt.Sprintf("cpu: context %d out of range", ctx))
	}
}

// Read returns the architectural value of GPR r in context ctx.
func (rf *RegFile) Read(ctx int, r isa.Reg) uint64 {
	rf.checkCtx(ctx)
	if !r.IsGPR() {
		panic(fmt.Sprintf("cpu: %s is not a GPR", r))
	}
	return rf.phys[rf.rmap[ctx][r]]
}

// Write sets the architectural value of GPR r in context ctx. When spare
// physical registers exist the write allocates a fresh one and recycles
// the old mapping, modelling register renaming; architectural semantics
// (last write wins per context) are identical either way.
func (rf *RegFile) Write(ctx int, r isa.Reg, val uint64) {
	rf.checkCtx(ctx)
	if !r.IsGPR() {
		panic(fmt.Sprintf("cpu: %s is not a GPR", r))
	}
	if len(rf.free) > 0 {
		p := rf.free[rf.head]
		rf.free[rf.head] = rf.rmap[ctx][r]
		rf.rmap[ctx][r] = p
		if rf.head++; rf.head == len(rf.free) {
			rf.head = 0
		}
	}
	rf.phys[rf.rmap[ctx][r]] = val
}

// ReadAll snapshots every GPR of a context (used by the software
// save/restore thunk in the baseline design).
func (rf *RegFile) ReadAll(ctx int) [isa.NumGPR]uint64 {
	rf.checkCtx(ctx)
	var out [isa.NumGPR]uint64
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		out[r] = rf.phys[rf.rmap[ctx][r]]
	}
	return out
}

// WriteAll installs a full GPR snapshot into a context.
func (rf *RegFile) WriteAll(ctx int, vals [isa.NumGPR]uint64) {
	rf.checkCtx(ctx)
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		rf.Write(ctx, r, vals[r])
	}
}

// SaveWords writes every context's GPRs, context by context.
func (rf *RegFile) SaveWords(w *words.Writer) {
	for _, m := range rf.rmap {
		for _, p := range m {
			w.Word(rf.phys[p])
		}
	}
}

// LoadWords writes every context's GPRs back through WriteAll, so the
// restored values take fresh physical registers like any other write.
func (rf *RegFile) LoadWords(r *words.Reader) {
	vals := make([][isa.NumGPR]uint64, len(rf.rmap))
	for c := range vals {
		for g := range vals[c] {
			vals[c][g] = r.Word()
		}
	}
	if r.Err() != nil {
		return
	}
	for c, v := range vals {
		rf.WriteAll(c, v)
	}
}

// CheckInvariants verifies the rename maps form an injection into the
// physical file and that free list entries are disjoint from mapped ones.
// Tests call it; it returns an error describing the first violation.
func (rf *RegFile) CheckInvariants() error {
	seen := make(map[int]string)
	for c := range rf.rmap {
		for r, p := range rf.rmap[c] {
			if p < 0 || p >= len(rf.phys) {
				return fmt.Errorf("ctx %d reg %d maps outside file: %d", c, r, p)
			}
			key := fmt.Sprintf("ctx%d/%s", c, isa.Reg(r))
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("physical reg %d mapped twice: %s and %s", p, prev, key)
			}
			seen[p] = key
		}
	}
	for _, p := range rf.free {
		if owner, dup := seen[p]; dup {
			return fmt.Errorf("free physical reg %d also mapped by %s", p, owner)
		}
		if p < 0 || p >= len(rf.phys) {
			return fmt.Errorf("free list entry outside file: %d", p)
		}
		seen[p] = "free"
	}
	return nil
}
