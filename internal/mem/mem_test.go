package mem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"svtsim/internal/qcheck"
	"svtsim/internal/race"
	"svtsim/internal/words"
)

func TestReadZeroFill(t *testing.T) {
	m := New(1 << 20)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := m.Read(4096, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory must read as zero")
		}
	}
	if len(m.pages) != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New(1 << 20)
	data := []byte("the turtles project")
	if err := m.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(1 << 20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 13) // straddles three pages
	if err := m.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip corrupted data")
	}
	if len(m.pages) != 4 {
		t.Fatalf("resident pages = %d, want 4", len(m.pages))
	}
}

func TestOutOfBounds(t *testing.T) {
	m := New(1000)
	if err := m.Write(990, make([]byte, 20)); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if err := m.Read(2000, make([]byte, 1)); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	// Overflow-wrapping access must also fail.
	if err := m.Read(^uint64(0)-4, make([]byte, 16)); err == nil {
		t.Fatal("expected overflow error")
	}
}

// Word-sized accesses, as the virtqueue makes them, round-trip through
// Read and Write, including one that straddles a page boundary.
func TestScalarAccessors(t *testing.T) {
	m := New(1 << 16)
	for _, at := range []uint64{0, 8, PageSize - 4} {
		var w, r [8]byte
		binary.LittleEndian.PutUint64(w[:], 0x0102030405060708+at)
		if err := m.Write(at, w[:]); err != nil {
			t.Fatal(err)
		}
		if err := m.Read(at, r[:]); err != nil {
			t.Fatal(err)
		}
		if r != w {
			t.Fatalf("word at %#x = %x, want %x", at, r, w)
		}
	}
}

func TestScalarOutOfBounds(t *testing.T) {
	m := New(10)
	if err := m.Read(8, make([]byte, 8)); err == nil {
		t.Fatal("expected error")
	}
	if err := m.Write(9, make([]byte, 4)); err == nil {
		t.Fatal("expected error")
	}
}

// Property: for any sequence of writes, a read returns the last write to
// each byte (against a flat reference model).
func TestMemoryMatchesReference(t *testing.T) {
	const space = 1 << 14
	type op struct {
		Addr uint16
		Data []byte
	}
	prop := func(ops []op) bool {
		m := New(space)
		ref := make([]byte, space)
		for _, o := range ops {
			addr := uint64(o.Addr)
			data := o.Data
			if len(data) > 256 {
				data = data[:256]
			}
			if addr+uint64(len(data)) > space {
				continue
			}
			if err := m.Write(addr, data); err != nil {
				return false
			}
			copy(ref[addr:], data)
		}
		got := make([]byte, space)
		if err := m.Read(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(prop, qcheck.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestSparseLargeSpace(t *testing.T) {
	m := New(128 << 30) // the testbed's 128 GB
	if err := m.Write(100<<30, []byte{42}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := m.Read(100<<30, got); err != nil || got[0] != 42 {
		t.Fatal("high-address write lost")
	}
	if len(m.pages) != 1 {
		t.Fatalf("resident = %d, want 1", len(m.pages))
	}
}

// A write of only zeros still materializes the page it touches: the page
// set is simulated state, so the page is in SaveWords' table (and in
// snapshot.Size) even though no line backs it.
func TestZeroWriteMaterializesPage(t *testing.T) {
	m := New(1 << 20)
	if err := m.Write(5*PageSize+1, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	ws := saveWords(m)
	if want := naiveSave(make([]byte, 1<<20), []uint64{5}); !slices.Equal(ws, want) {
		t.Fatalf("SaveWords wrote %d words (table of %d), want page 5 as %d zero words", len(ws), ws[0], wordsPerPage)
	}
	sizer := words.NewSizer()
	m.SaveWords(sizer)
	if sizer.Len() != len(ws) {
		t.Fatalf("sizing writer counted %d words, SaveWords wrote %d", sizer.Len(), len(ws))
	}
}

// A malformed mem section leaves an already-loaded memory as it was,
// even when the fault comes after pages that parsed cleanly: LoadWords
// parses into locals and applies only if the whole section parsed.
func TestLoadWordsMalformedLeavesMemory(t *testing.T) {
	const space = 4 * PageSize
	pattern := func(seed byte, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i)
		}
		return p
	}
	m := New(space)
	if err := m.Write(PageSize-10, pattern(1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(3*PageSize, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	wantWords := saveWords(m)
	want := make([]byte, space)
	if err := m.Read(0, want); err != nil {
		t.Fatal(err)
	}

	// A section for three pages (0, 2, 3) with different contents.
	src := New(space)
	for _, p := range []uint64{0, 2, 3} {
		if err := src.Write(p*PageSize, pattern(byte(p)+7, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	good := saveWords(src)
	idx := func(page int) int { return 1 + page*(1+wordsPerPage) } // where a row's index sits
	for _, tc := range []struct {
		name string
		edit func([]uint64) []uint64
	}{
		{"repeated page index", func(ws []uint64) []uint64 { ws[idx(1)] = 0; return ws }},
		{"descending page index", func(ws []uint64) []uint64 { ws[idx(2)] = 1; return ws }},
		{"page index past the space", func(ws []uint64) []uint64 { ws[idx(2)] = space / PageSize; return ws }},
		{"truncated last page", func(ws []uint64) []uint64 { return ws[:len(ws)-1] }},
		{"count past the section", func(ws []uint64) []uint64 { ws[0]++; return ws }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := words.NewReader("mem", literal(tc.edit(slices.Clone(good))))
			m.LoadWords(r)
			if r.Err() == nil {
				t.Fatal("malformed section loaded without error")
			}
			got := make([]byte, space)
			if err := m.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("rejected section changed memory contents")
			}
			if !slices.Equal(saveWords(m), wantWords) {
				t.Fatal("rejected section changed the page set")
			}
		})
	}
}

// A first touch that writes one nonzero byte backs one 256-byte line
// and a share of a page-header slab, not a 4 KB page.
func TestFirstTouchAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const pages, budget = 1024, 600
	m := New(pages * PageSize)
	one := []byte{1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < pages; i++ {
		if err := m.Write(i*PageSize+100, one); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / pages
	t.Logf("%d bytes per first-touched page", per)
	if per > budget {
		t.Errorf("a 1-byte write into a fresh page allocates %d bytes, budget %d", per, budget)
	}
}

// A write of only zeros backs no line: into a materialized page it
// allocates nothing, and fresh pages it touches have no lines.
func TestZeroWriteAllocatesNoLine(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	m := New(64 * PageSize)
	if err := m.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 3*PageSize)
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Write(1, zeros[:PageSize-1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("zero write into a materialized page: %.1f allocs, want 0", n)
	}
	if err := m.Write(10*PageSize+7, zeros); err != nil {
		t.Fatal(err)
	}
	for p := uint64(10); p <= 13; p++ {
		pg := m.pages[p]
		if pg == nil {
			t.Fatalf("page %d not materialized by a zero write", p)
		}
		if *pg != (page{}) {
			t.Fatalf("zero write backed a line in page %d", p)
		}
	}
	if lines := backedLines(m); len(lines) != 1 {
		t.Fatalf("%d lines backed, want only the one holding the nonzero byte", len(lines))
	}
}
