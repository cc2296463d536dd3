package ept

import (
	"fmt"

	"svtsim/internal/mem"
	"svtsim/internal/words"
)

// SaveWords writes the table content: the mapped pages in guest-frame
// order, one (frame, host frame, permissions) row per page, the device
// regions in installation order, and a zero word where the format keeps
// an invalidation epoch the model no longer has. Each run's
// rows are one ramp, since frame and host frame both step by one. The
// walk counter is a performance tally, not architectural state, and is
// not written.
func (t *Table) SaveWords(w *words.Writer) {
	w.Table(t.mapped, 3, func() {
		for _, r := range t.runs {
			w.Ramp(int(r.n), []uint64{r.gfn, r.hostPage, uint64(r.perm)}, []uint64{1, 1, 0})
		}
	})
	w.Table(len(t.devs), 3, func() {
		for _, d := range t.devs {
			w.Word(d.base)
			w.Word(d.size)
			w.Word(d.dev)
		}
	})
	w.Word(0)
}

// LoadWords replaces the table content with words SaveWords wrote,
// coalescing the pages back into runs. Mappings installed after the
// capture are dropped, exactly as a restored EPT must forget
// post-snapshot changes. Rows Map or MapMisconfig would refuse are
// rejected: frames out of order or beyond the guest-physical range,
// host frames past a 64-bit address, unknown permission bits, and empty
// or wrapping device regions, and a nonzero invalidation epoch.
func (t *Table) LoadWords(r *words.Reader) {
	fresh := Table{name: t.name}
	for i, n, next := 0, r.Count(3), uint64(0); i < n && r.Err() == nil; i++ {
		g := r.Range(next, maxGPA/mem.PageSize, "guest frame")
		host := r.Range(0, 1<<64/mem.PageSize, "host frame")
		perm := r.Range(0, uint64(PermRWX)+1, "permission")
		fresh.appendRun(run{gfn: g, n: 1, hostPage: host, perm: Perm(perm)})
		next = g + 1
	}
	for i, n := 0, r.Count(3); i < n; i++ {
		base, size, dev := r.Word(), r.Word(), r.Word()
		if r.Err() == nil && (size == 0 || base+size < base) {
			r.Fail(fmt.Errorf("device region base %#x size %#x is empty or wraps", base, size))
		}
		fresh.devs = append(fresh.devs, devRegion{base: base, size: size, dev: dev})
	}
	r.Range(0, 1, "invalidation epoch")
	if r.Err() != nil {
		return
	}
	t.runs, t.mapped, t.devs = fresh.runs, fresh.mapped, fresh.devs
}
