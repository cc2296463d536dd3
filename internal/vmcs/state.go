package vmcs

import (
	"math/bits"

	"svtsim/internal/isa"
	"svtsim/internal/words"
)

// SaveWords writes the VMCS content: every field the descriptor holds,
// the software-managed GPR save area, the shadowing flag, and the
// MSR-bitmap and dirty-tracking sets ascending. The Shadow link is not
// written — it is wiring between descriptors, re-established by
// machine construction, not per-VM content that migrates.
func (v *VMCS) SaveWords(w *words.Writer) {
	for _, f := range v.fields {
		w.Word(f)
	}
	for _, g := range v.GPRs {
		w.Word(g)
	}
	w.Bool(v.ShadowEnabled)
	addrs := *v.exitMSRs
	w.Table(len(addrs), 1, func() {
		for _, a := range addrs {
			w.Word(uint64(a))
		}
	})
	ndirty := 0
	for _, d := range v.dirty {
		ndirty += bits.OnesCount64(d)
	}
	w.Table(ndirty, 1, func() {
		for f := Field(0); f < NumFields; f++ {
			if v.Dirty(f) {
				w.Word(uint64(f))
			}
		}
	})
}

// LoadWords overwrites the VMCS content with words SaveWords wrote.
func (v *VMCS) LoadWords(r *words.Reader) {
	var fields [NumFields]uint64
	for i := range fields {
		fields[i] = r.Word()
	}
	var gprs [isa.NumGPR]uint64
	for i := range gprs {
		gprs[i] = r.Word()
	}
	shadow := r.Bool()
	msrs := make([]uint32, r.Count(1))
	for i, next := 0, uint64(0); i < len(msrs); i++ {
		a := r.Range(next, 1<<32, "exiting MSR")
		msrs[i], next = uint32(a), a+1
	}
	var dirty [(NumFields + 63) / 64]uint64
	for i, n, next := 0, r.Count(1), uint64(0); i < n; i++ {
		f := r.Range(next, uint64(NumFields), "dirty field")
		dirty[f/64] |= 1 << (f % 64)
		next = f + 1
	}
	if r.Err() != nil {
		return
	}
	v.fields, v.GPRs, v.ShadowEnabled, v.dirty = fields, gprs, shadow, dirty
	*v.exitMSRs = msrs // read ascending
}
