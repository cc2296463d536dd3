package mem

import (
	"encoding/binary"
	"slices"

	"svtsim/internal/words"
)

const wordsPerPage = PageSize / 8

// SaveWords writes every materialized page in index order: its index,
// then its contents as little-endian words. An unbacked line writes as a
// ramp of zero words, and a page with no header as one ramp of a page's
// zero words, which merges with its neighbours as its lines' ramps
// would, so the logical encoding does not depend on backing.
func (m *Memory) SaveWords(w *words.Writer) {
	if len(m.order) != len(m.pages) {
		m.order = m.order[:0]
		for i := range m.pages {
			m.order = append(m.order, i)
		}
		slices.Sort(m.order)
	}
	w.Table(len(m.order), 1+wordsPerPage, func() {
		for _, i := range m.order {
			w.Word(uint64(i))
			h := m.pages[i]
			if h == 0 {
				w.Ramp(wordsPerPage, []uint64{0}, []uint64{0})
				continue
			}
			for _, l := range m.head(h) {
				if l == 0 {
					w.Ramp(lineSize/8, []uint64{0}, []uint64{0})
					continue
				}
				ln := m.line(l)
				for off := 0; off < lineSize; off += 8 {
					w.Word(binary.LittleEndian.Uint64(ln[off:]))
				}
			}
		}
	})
}

// LoadWords replaces the entire contents of memory with the pages
// SaveWords wrote: pages materialized after the capture are dropped
// (they read as zeros again). Page indices must ascend and lie inside
// the address space. Only lines holding a nonzero byte are backed, each
// as a private line that later writes change in place, and only pages
// holding one get a header.
func (m *Memory) LoadWords(r *words.Reader) {
	n := r.Count(1 + wordsPerPage)
	nm := Memory{size: m.size, pages: make(map[uint32]uint32, n)}
	limit := (m.size + PageSize - 1) / PageSize
	for i, next := 0, uint64(0); i < n && r.Err() == nil; i++ {
		idx := r.Range(next, limit, "page index")
		nm.pages[uint32(idx)] = 0
		var pg *page
		for l := range linesPerPage {
			var buf line
			for off := 0; off < lineSize; off += 8 {
				binary.LittleEndian.PutUint64(buf[off:], r.Word())
			}
			if buf == zeroLine {
				continue
			}
			if pg == nil {
				pg = nm.newHead(uint32(idx))
			}
			pg[l] = add(&nm.lines)
			*nm.line(pg[l]) = buf
		}
		next = idx + 1
	}
	if r.Err() == nil {
		*m = nm
	}
}
