package mem

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"svtsim/internal/words"
)

// save returns m's SaveWords output as stored, ramps and all.
func save(m *Memory) words.Stream { return new(words.Writer).Record(m.SaveWords) }

// saveWords returns m's SaveWords output as flat logical words.
func saveWords(m *Memory) []uint64 {
	s := save(m)
	r := words.NewReader("mem", s)
	ws := make([]uint64, s.Len())
	for i := range ws {
		ws[i] = r.Word()
	}
	return ws
}

// literal stores ws as literal words only.
func literal(ws []uint64) words.Stream {
	return new(words.Writer).Record(func(w *words.Writer) {
		for _, x := range ws {
			w.Word(x)
		}
	})
}

// naiveSave encodes the given pages of ref the way SaveWords would if
// every page were one flat 4 KB array.
func naiveSave(ref []byte, pages []uint64) []uint64 {
	ws := []uint64{uint64(len(pages))}
	for _, p := range pages {
		var pg [PageSize]byte
		copy(pg[:], ref[min(p*PageSize, uint64(len(ref))):])
		ws = append(ws, p)
		for off := 0; off < PageSize; off += 8 {
			ws = append(ws, binary.LittleEndian.Uint64(pg[off:]))
		}
	}
	return ws
}

// backedLines returns the index (address / lineSize) of every line m backs.
func backedLines(m *Memory) map[uint64]bool {
	got := map[uint64]bool{}
	for p, h := range m.pages {
		if h == 0 {
			continue
		}
		for l, ln := range m.head(h) {
			if ln != 0 {
				got[uint64(p)*linesPerPage+uint64(l)] = true
			}
		}
	}
	return got
}

// FuzzMemory runs a stream of writes, reads and SaveWords→LoadWords round
// trips against a flat byte slice and checks, after every op, that:
//   - every byte reads back as the reference holds it;
//   - the page set is exactly the pages some Write touched, zero-only
//     writes included (a round trip keeps the set);
//   - a line is backed exactly when a write put a nonzero byte in it
//     (after a round trip: exactly when it holds a nonzero byte), and a
//     page has a header exactly when one of its lines is backed;
//   - a shared line is never written in place: its bytes stay those it
//     was made with, whichever slots name it, and a round trip restores
//     every line as a private one;
//   - SaveWords equals a naive 4 KB-per-page encoding of the reference.
//
// Each op is 6 bytes: kind, address (2), length (2), fill.
func FuzzMemory(f *testing.F) {
	op := func(kind byte, addr, n uint16, fill byte) []byte {
		return []byte{kind, byte(addr), byte(addr >> 8), byte(n), byte(n >> 8), fill}
	}
	f.Add(slices.Concat(op(0, PageSize-3, 10, 0), op(3, 0, 0, 0), op(2, 0, PageSize*2, 0)))
	f.Add(slices.Concat(op(1, 250, 20, 3), op(0, 240, 40, 0), op(4, PageSize-1, 2*PageSize, 1), op(3, 0, 0, 0)))
	f.Add(slices.Concat(op(1, 9*PageSize, 300, 5), op(3, 0, 0, 0), op(0, 9*PageSize, 300, 0), op(3, 0, 0, 0)))
	f.Add(slices.Concat(op(0, 2*PageSize, PageSize, 0), op(3, 0, 0, 0), op(4, 2*PageSize+10, 50, 7), op(3, 0, 0, 0)))
	// Same-fill whole lines in two pages share a line; a partial write
	// to one copies it.
	f.Add(slices.Concat(op(1, PageSize, lineSize, 3), op(1, 5*PageSize+lineSize, 2*lineSize, 3), op(4, PageSize+10, 5, 9), op(3, 0, 0, 0), op(4, 5*PageSize+lineSize, lineSize, 2)))

	const space = 9*PageSize + 300 // the last page is partial
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(space)
		ref := make([]byte, space)
		touched := map[uint64]bool{}
		backed := map[uint64]bool{}
		shared := map[uint32]line{} // each shared slot seen, with its bytes then
		for ; len(ops) >= 6; ops = ops[6:] {
			kind := ops[0] % 5
			addr := uint64(binary.LittleEndian.Uint16(ops[1:])) % space
			n := min(uint64(binary.LittleEndian.Uint16(ops[3:]))%(2*PageSize+lineSize), space-addr)
			fill := ops[5]
			switch kind {
			case 0, 1, 4: // write zeros, a pattern with zeros in it, or one nonzero byte at the end
				data := make([]byte, n)
				for i := range data {
					switch {
					case kind == 1:
						data[i] = byte(i) * fill
					case kind == 4 && i == len(data)-1:
						data[i] = fill | 1
					}
				}
				if err := m.Write(addr, data); err != nil {
					t.Fatalf("write [%#x,+%d): %v", addr, n, err)
				}
				copy(ref[addr:], data)
				for i, b := range data {
					a := addr + uint64(i)
					touched[a/PageSize] = true
					if b != 0 {
						backed[a/lineSize] = true
					}
				}
			case 2: // read
				got := bytes.Repeat([]byte{0xa5}, int(n))
				if err := m.Read(addr, got); err != nil {
					t.Fatalf("read [%#x,+%d): %v", addr, n, err)
				}
				if !bytes.Equal(got, ref[addr:addr+n]) {
					t.Fatalf("read [%#x,+%d) differs from the reference", addr, n)
				}
			case 3: // SaveWords → LoadWords into a fresh memory
				m = roundTrip(t, m)
				for _, h := range m.pages {
					if h != 0 && slices.ContainsFunc(m.head(h)[:], func(l uint32) bool { return l&sharedBit != 0 }) {
						t.Fatal("a round trip restored a shared line")
					}
				}
				clear(shared)
				clear(backed)
				for a, b := range ref {
					if b != 0 {
						backed[uint64(a)/lineSize] = true
					}
				}
			}

			got := make([]byte, space)
			if err := m.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("memory differs from the reference")
			}
			headed := map[uint64]bool{}
			for l := range backed {
				headed[l/linesPerPage] = true
			}
			var pages []uint64
			for p := range touched {
				h, ok := m.pages[uint32(p)]
				if !ok {
					t.Fatalf("written page %d is not materialized", p)
				}
				if (h != 0) != headed[p] {
					t.Fatalf("page %d: header %v, want one exactly when a line is backed", p, h)
				}
				pages = append(pages, p)
			}
			if len(m.pages) != len(touched) {
				t.Fatalf("page set has %d pages, %d were written", len(m.pages), len(touched))
			}
			for _, h := range m.pages {
				if h == 0 {
					continue
				}
				for _, l := range m.head(h) {
					if l&sharedBit == 0 {
						continue
					}
					if was, ok := shared[l]; !ok {
						shared[l] = *m.line(l)
					} else if was != *m.line(l) {
						t.Fatalf("shared line %#x was written in place", l)
					}
				}
			}
			if lines := backedLines(m); !maps.Equal(lines, backed) {
				t.Fatalf("%d lines backed, want %d", len(lines), len(backed))
			}
			slices.Sort(pages)
			if !slices.Equal(saveWords(m), naiveSave(ref, pages)) {
				t.Fatal("SaveWords differs from the naive encoding of the reference")
			}
		}
	})
}
