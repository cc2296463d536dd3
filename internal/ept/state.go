package ept

// PageState is one mapped page in canonical form.
type PageState struct {
	GFN      uint64
	HostPage uint64
	Perm     Perm
}

// DevState is one misconfigured (device) region in canonical form.
type DevState struct {
	Base, Size, Dev uint64
}

// State is the canonical serializable form of a table: mappings sorted
// by guest frame number, one per page, device regions in installation
// order, and the invalidation epoch. The walk counter is a performance
// tally, not architectural state, and is excluded.
type State struct {
	Pages []PageState
	Devs  []DevState
	Epoch uint64
}

// EachPage calls f for every mapped page in guest-frame order: the
// Pages of SaveState without building them.
func (t *Table) EachPage(f func(PageState)) {
	for _, r := range t.runs {
		for i := uint64(0); i < r.n; i++ {
			f(PageState{GFN: r.gfn + i, HostPage: r.hostPage + i, Perm: r.perm})
		}
	}
}

// EachDevice calls f for every device region in installation order.
func (t *Table) EachDevice(f func(DevState)) {
	for _, d := range t.devs {
		f(DevState{Base: d.base, Size: d.size, Dev: d.dev})
	}
}

// SaveState captures the table content.
func (t *Table) SaveState() State {
	s := State{Epoch: t.epoch}
	if t.mapped > 0 {
		s.Pages = make([]PageState, 0, t.mapped)
	}
	t.EachPage(func(p PageState) { s.Pages = append(s.Pages, p) })
	t.EachDevice(func(d DevState) { s.Devs = append(s.Devs, d) })
	return s
}

// LoadState replaces the table content with a saved state, coalescing
// its pages back into runs. Mappings installed after the capture are
// dropped, exactly as a restored EPT must forget post-snapshot changes.
func (t *Table) LoadState(s State) {
	t.runs, t.mapped = t.runs[:0], 0
	for _, p := range s.Pages {
		r := run{gfn: p.GFN, n: 1, hostPage: p.HostPage, perm: p.Perm}
		if k := len(t.runs) - 1; k < 0 || t.runs[k].end() <= p.GFN {
			t.appendRun(r)
		} else {
			t.put(r)
		}
	}
	t.devs = t.devs[:0]
	for _, d := range s.Devs {
		t.devs = append(t.devs, devRegion{base: d.Base, size: d.Size, dev: d.Dev})
	}
	t.epoch = s.Epoch
}
