package ept

import (
	"reflect"
	"slices"
	"testing"

	"svtsim/internal/words"
)

// pageRow is one mapped page as SaveWords writes it.
type pageRow struct {
	GFN, HostPage uint64
	Perm          Perm
}

// devRow is one device region as SaveWords writes it.
type devRow struct{ Base, Size, Dev uint64 }

// tableState is a table's SaveWords output decoded into rows.
type tableState struct {
	Pages []pageRow
	Devs  []devRow
	Epoch uint64
}

// save returns tb's SaveWords output as stored, ramps and all.
func save(tb *Table) words.Stream { return new(words.Writer).Record(tb.SaveWords) }

// saveWords returns tb's SaveWords output as flat logical words.
func saveWords(tb *Table) []uint64 {
	s := save(tb)
	r := words.NewReader(tb.name, s)
	ws := make([]uint64, s.Len())
	for i := range ws {
		ws[i] = r.Word()
	}
	return ws
}

// stateOf decodes tb's SaveWords output into rows.
func stateOf(tb *Table) tableState {
	r := words.NewReader(tb.name, save(tb))
	var s tableState
	for i, n := 0, r.Count(3); i < n; i++ {
		s.Pages = append(s.Pages, pageRow{r.Word(), r.Word(), Perm(r.Word())})
	}
	for i, n := 0, r.Count(3); i < n; i++ {
		s.Devs = append(s.Devs, devRow{r.Word(), r.Word(), r.Word()})
	}
	s.Epoch = r.Word()
	if err := r.Fin(); err != nil {
		panic(err)
	}
	return s
}

// words encodes s the way SaveWords writes it, one literal word at a
// time.
func (s tableState) words() words.Stream {
	return new(words.Writer).Record(func(w *words.Writer) {
		w.Word(uint64(len(s.Pages)))
		for _, p := range s.Pages {
			w.Word(p.GFN)
			w.Word(p.HostPage)
			w.Word(uint64(p.Perm))
		}
		w.Word(uint64(len(s.Devs)))
		for _, d := range s.Devs {
			w.Word(d.Base)
			w.Word(d.Size)
			w.Word(d.Dev)
		}
		w.Word(s.Epoch)
	})
}

// loadWords runs tb.LoadWords over ws and returns the reader's verdict.
func loadWords(tb *Table, ws words.Stream) error {
	r := words.NewReader(tb.name, ws)
	tb.LoadWords(r)
	return r.Fin()
}

// refPage is one frame of the reference model.
type refPage struct {
	host uint64
	perm Perm
}

// refTable is the obvious model of a table: one map entry per mapped
// guest frame and the device regions in installation order.
type refTable struct {
	pages map[uint64]refPage
	devs  []devRow
}

func newRef() *refTable { return &refTable{pages: map[uint64]refPage{}} }

func (m *refTable) deviceAt(gpa uint64) (uint64, bool) {
	for _, d := range m.devs {
		if gpa >= d.Base && gpa < d.Base+d.Size {
			return d.Dev, true
		}
	}
	return 0, false
}

func (m *refTable) translate(gpa uint64, need Perm) (uint64, error) {
	if dev, ok := m.deviceAt(gpa); ok {
		return 0, &MisconfigError{GPA: gpa, Dev: dev}
	}
	p, ok := m.pages[gpa/pg]
	if !ok || p.perm&need != need {
		return 0, &ViolationError{GPA: gpa, Need: need}
	}
	return p.host*pg + gpa%pg, nil
}

func (m *refTable) gfns() []uint64 {
	gs := make([]uint64, 0, len(m.pages))
	for g := range m.pages {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	return gs
}

func (m *refTable) state() tableState {
	s := tableState{Devs: m.devs}
	for _, g := range m.gfns() {
		p := m.pages[g]
		s.Pages = append(s.Pages, pageRow{GFN: g, HostPage: p.host, Perm: p.perm})
	}
	return s
}

// refCompose is Compose page by page.
func refCompose(inner, outer *refTable) (*refTable, error) {
	out := newRef()
	for _, g := range inner.gfns() {
		p := inner.pages[g]
		if dev, ok := outer.deviceAt(p.host * pg); ok {
			out.devs = append(out.devs, devRow{Base: g * pg, Size: pg, Dev: dev})
			continue
		}
		op, ok := outer.pages[p.host]
		if !ok {
			return nil, &ViolationError{GPA: p.host * pg, Need: PermR}
		}
		out.pages[g] = refPage{host: op.host, perm: p.perm & op.perm}
	}
	out.devs = append(out.devs, inner.devs...)
	return out, nil
}

// checkTable compares tb with its model and checks the run invariant:
// runs sorted, disjoint and non-empty, no run joining the next, and the
// mapped count equal to the frames the runs hold.
func checkTable(t *testing.T, step int, tb *Table, m *refTable) {
	t.Helper()
	sum := 0
	for i, r := range tb.runs {
		if r.n == 0 {
			t.Fatalf("step %d: %s run %d is empty: %+v", step, tb.name, i, tb.runs)
		}
		if i > 0 && tb.runs[i-1].end() > r.gfn {
			t.Fatalf("step %d: %s runs %d and %d overlap or are unsorted: %+v", step, tb.name, i-1, i, tb.runs)
		}
		if i > 0 && tb.runs[i-1].joins(r) {
			t.Fatalf("step %d: %s runs %d and %d should be merged: %+v", step, tb.name, i-1, i, tb.runs)
		}
		sum += int(r.n)
	}
	if sum != tb.mapped || tb.mapped != len(m.pages) {
		t.Fatalf("step %d: %s mapped = %d, runs hold %d, model %d", step, tb.name, tb.mapped, sum, len(m.pages))
	}
	got, want := stateOf(tb), m.state()
	if !slices.Equal(got.Pages, want.Pages) || !slices.Equal(got.Devs, want.Devs) || got.Epoch != want.Epoch {
		t.Fatalf("step %d: %s state\n%+v\nwant\n%+v", step, tb.name, got, want)
	}
	for gfn := uint64(0); gfn < 72; gfn++ {
		gpa, need := gfn*pg+gfn*37%pg, []Perm{PermR, PermW, PermX}[gfn%3]
		h, err := tb.Translate(gpa, need)
		wh, werr := m.translate(gpa, need)
		if h != wh || !reflect.DeepEqual(err, werr) {
			t.Fatalf("step %d: %s Translate(%#x, %s) = %#x, %v; model %#x, %v", step, tb.name, gpa, need, h, err, wh, werr)
		}
	}
}

// maxFuzzDevs caps a fuzzed table's device regions: repeated Compose
// steps would otherwise pile up one region per page and make every
// Translate check slow.
const maxFuzzDevs = 32

// FuzzTableOps drives two tables through random Map, Unmap,
// MapMisconfig, Compose and SaveWords→LoadWords steps and
// checks both against the per-frame model after every step. A Map over
// a mapped frame or a device window must fail and change nothing. A load of
// the saved pages reversed must be rejected (pages ascend) and leave
// its table untouched. Each step
// takes four bytes: an op (low three bits) and target table (bit 3),
// then three arguments. Frames stay below 64 so maps collide and runs
// split and merge often.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 16, 7, 0, 4, 20, 3, 1, 2, 3, 0})
	f.Add([]byte{8, 0, 0, 7, 0, 0, 0, 7, 3, 0, 0, 0})
	f.Add([]byte{8, 0, 40, 6, 10, 60, 2, 1, 0, 30, 8, 7, 3, 0, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{0, 5, 50, 7, 0, 6, 51, 7, 1, 5, 1, 0, 2, 255, 2, 1, 4, 0, 0, 0})
	f.Add([]byte{8, 0, 0, 63, 10, 24, 1, 5, 0, 0, 0, 63, 3, 0, 0, 0}) // device inside an outer run
	f.Fuzz(func(t *testing.T, data []byte) {
		tabs := [2]*Table{New("a"), New("b")}
		refs := [2]*refTable{newRef(), newRef()}
		for step := 0; len(data) >= 4 && step < 32; step++ {
			op, x, y, z := data[0], uint64(data[1]), uint64(data[2]), data[3]
			data = data[4:]
			k := int(op>>3) & 1
			tb, m := tabs[k], refs[k]
			switch op & 7 {
			case 0: // Map
				gfn, host, n, perm := x%64, y%64, 1+uint64(z>>3)%16, Perm(z&7)
				overlaps := false
				for i := uint64(0); i < n; i++ {
					_, mapped := m.pages[gfn+i]
					overlaps = overlaps || mapped
				}
				for _, d := range m.devs {
					overlaps = overlaps || gfn*pg < d.Base+d.Size && d.Base < (gfn+n)*pg
				}
				if err := tb.Map(gfn*pg, host*pg, n*pg, perm); (err != nil) != overlaps {
					t.Fatalf("step %d: Map(frames %d+%d) = %v, overlap %v", step, gfn, n, err, overlaps)
				} else if err != nil {
					break // rejected: the table must match the untouched model
				}
				for i := uint64(0); i < n; i++ {
					m.pages[gfn+i] = refPage{host: host + i, perm: perm}
				}
			case 1: // Unmap
				gfn, n := x%64, y%20
				if err := tb.Unmap(gfn*pg, n*pg); err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < n; i++ {
					delete(m.pages, gfn+i)
				}
			case 2: // MapMisconfig, sub-page aligned
				gpa, size, dev := x*512, y*256, uint64(z)
				if x == 255 {
					gpa, size = ^uint64(0)&^(pg-1), 2*pg
				}
				if len(m.devs) >= maxFuzzDevs {
					break
				}
				err := tb.MapMisconfig(gpa, size, dev)
				if wantErr := size == 0 || gpa+size < gpa; (err != nil) != wantErr {
					t.Fatalf("MapMisconfig(%#x, %#x) = %v", gpa, size, err)
				}
				if err == nil {
					m.devs = append(m.devs, devRow{Base: gpa, Size: size, Dev: dev})
				}
			case 3: // Compose over the other table
				c, err := Compose(tb.name, tb, tabs[1-k])
				wc, werr := refCompose(m, refs[1-k])
				if !reflect.DeepEqual(err, werr) {
					t.Fatalf("Compose err = %v, model %v", err, werr)
				}
				if err == nil && len(wc.devs) <= maxFuzzDevs {
					tabs[k], refs[k] = c, wc
				}
			case 4, 6: // SaveWords → LoadWords into a table with other content
				r := New(tb.name)
				if err := r.Map(0, 0, 64*pg, PermRWX); err != nil {
					t.Fatal(err)
				}
				if err := r.MapMisconfig(0, pg, 99); err != nil {
					t.Fatal(err)
				}
				if st := stateOf(tb); op&7 == 6 && len(st.Pages) > 1 {
					before := saveWords(r)
					slices.Reverse(st.Pages)
					if err := loadWords(r, st.words()); err == nil {
						t.Fatalf("step %d: LoadWords accepted pages out of order", step)
					}
					if !slices.Equal(saveWords(r), before) {
						t.Fatalf("step %d: rejected LoadWords changed the table", step)
					}
				}
				if err := loadWords(r, save(tb)); err != nil {
					t.Fatal(err)
				}
				tabs[k] = r
			}
			for i := range tabs {
				checkTable(t, step, tabs[i], refs[i])
			}
		}
	})
}
