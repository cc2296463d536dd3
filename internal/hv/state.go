package hv

import (
	"slices"

	"svtsim/internal/words"
)

// SaveWords writes the emulated MSR store as (address, value) pairs in
// address order, then Halted. Halted is written for comparison but not
// restored: it mirrors a goroutine parked in a live HLT wait, which
// restore's write-back semantics leave running.
func (vc *VCPU) SaveWords(w *words.Writer) {
	w.Table(len(vc.msrStore), 2, func() {
		addrs := make([]uint32, 0, len(vc.msrStore))
		for a := range vc.msrStore {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			w.Word(uint64(a))
			w.Word(vc.msrStore[a])
		}
	})
	w.Bool(vc.Halted)
}

// LoadWords replaces the MSR store with words SaveWords wrote; the
// Halted word is checked and discarded.
func (vc *VCPU) LoadWords(r *words.Reader) {
	n := r.Count(2)
	msrs := make(map[uint32]uint64, n)
	for i, next := 0, uint64(0); i < n; i++ {
		a := r.Range(next, 1<<32, "MSR")
		msrs[uint32(a)] = r.Word()
		next = a + 1
	}
	r.Bool()
	if r.Err() == nil {
		vc.msrStore = msrs
	}
}
