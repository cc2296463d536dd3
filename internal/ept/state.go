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
// by guest frame number, device regions in installation order, and the
// invalidation epoch. The walk counter is a performance tally, not
// architectural state, and is excluded.
type State struct {
	Pages []PageState
	Devs  []DevState
	Epoch uint64
}

// SaveState captures the table content.
func (t *Table) SaveState() State {
	s := State{Epoch: t.epoch}
	if t.mapped > 0 {
		s.Pages = make([]PageState, 0, t.mapped)
	}
	for gfn, e := range t.pages {
		if e.mapped() {
			s.Pages = append(s.Pages, PageState{GFN: uint64(gfn), HostPage: e.hostPage(), Perm: e.perm()})
		}
	}
	for _, d := range t.devs {
		s.Devs = append(s.Devs, DevState{Base: d.base, Size: d.size, Dev: d.dev})
	}
	return s
}

// LoadState replaces the table content with a saved state. Mappings
// installed after the capture are dropped, exactly as a restored EPT
// must forget post-snapshot changes.
func (t *Table) LoadState(s State) {
	clear(t.pages)
	t.pages, t.mapped = t.pages[:0], 0
	var end uint64
	for _, p := range s.Pages {
		end = max(end, p.GFN+1)
	}
	t.grow(end)
	for _, p := range s.Pages {
		t.set(p.GFN, mkEntry(p.HostPage, p.Perm))
	}
	t.devs = t.devs[:0]
	for _, d := range s.Devs {
		t.devs = append(t.devs, devRegion{base: d.Base, size: d.Size, dev: d.Dev})
	}
	t.epoch = s.Epoch
}
