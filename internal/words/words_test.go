package words

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// literal stores ws as literal words only: the plain per-word stream.
func literal(ws []uint64) Stream { return Stream{lit: ws, n: len(ws)} }

// flat returns s's logical words.
func flat(s Stream) []uint64 {
	r := NewReader("flat", s)
	ws := make([]uint64, s.Len())
	for i := range ws {
		ws[i] = r.Word()
	}
	return ws
}

func TestSizerMatchesWriter(t *testing.T) {
	save := func(w *Writer) {
		w.Word(7)
		w.Bool(true)
		w.Table(3, 2, func() {
			for i := uint64(0); i < 6; i++ {
				w.Word(i)
			}
		})
		w.Ramp(4, []uint64{10, 20, 30}, []uint64{1, 0, 2})
	}
	s := NewSizer()
	save(s)
	rec := new(Writer).Record(save)
	want := []uint64{7, 1, 3, 0, 1, 2, 3, 4, 5, 10, 20, 30, 11, 20, 32, 12, 20, 34, 13, 20, 36}
	if s.Len() != len(want) || rec.Len() != len(want) {
		t.Fatalf("sizer %d, recorded %d words, want %d", s.Len(), rec.Len(), len(want))
	}
	if got := flat(rec); !slices.Equal(got, want) {
		t.Fatalf("words %v, want %v", got, want)
	}
	if len(s.s.lit) != 0 || len(s.s.ramps) != 0 {
		t.Fatalf("a sizing writer stored %d words and %d ramps", len(s.s.lit), len(s.s.ramps))
	}
	checkExact(t, rec)
}

// checkExact checks that a recorded stream's storage is exactly sized.
func checkExact(t *testing.T, s Stream) {
	t.Helper()
	if len(s.lit) != cap(s.lit) || len(s.ramps) != cap(s.ramps) {
		t.Fatalf("stored %d of %d literal words and %d of %d ramps, want exactly sized",
			len(s.lit), cap(s.lit), len(s.ramps), cap(s.ramps))
	}
}

// A table whose rows write other than n·per words, and a save that
// writes other words on its second pass, panic instead of recording a
// section that sizing would count differently.
func TestRecordRejectsMiscountedSaves(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func() func(w *Writer)
		want string
	}{
		{"short table", func() func(w *Writer) {
			return func(w *Writer) { w.Table(2, 2, func() { w.Word(1); w.Word(2); w.Word(3) }) }
		}, "a table of 2 rows of 2 words wrote 3 words"},
		{"second pass differs", func() func(w *Writer) {
			calls := 0
			return func(w *Writer) {
				calls++
				w.Word(1)
				if calls == 2 {
					w.Ramp(2, []uint64{0}, []uint64{0})
				}
			}
		}, "counted 1 words (1 literal, 0 ramps), wrote 3 (1 literal, 1 ramps)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			new(Writer).Record(tc.save())
		})
	}
}

// A ramp that continues the previous one, with no literal word between,
// extends it; any other ramp starts a new one.
func TestRampMerges(t *testing.T) {
	ept := []uint64{1, 1, 0}
	for _, tc := range []struct {
		name  string
		write func(w sink)
		ramps int
	}{
		{"EPT rows continuing", func(w sink) {
			w.Ramp(2, []uint64{5, 100, 7}, ept)
			w.Ramp(3, []uint64{7, 102, 7}, ept)
		}, 1},
		{"zero lines", func(w sink) {
			for i := 0; i < 4; i++ {
				w.Ramp(32, []uint64{0}, []uint64{0})
			}
		}, 1},
		{"gap in the frames", func(w sink) {
			w.Ramp(2, []uint64{5, 100, 7}, ept)
			w.Ramp(3, []uint64{8, 103, 7}, ept)
		}, 2},
		{"other permissions", func(w sink) {
			w.Ramp(2, []uint64{5, 100, 7}, ept)
			w.Ramp(3, []uint64{7, 102, 3}, ept)
		}, 2},
		{"other step", func(w sink) {
			w.Ramp(2, []uint64{0}, []uint64{0})
			w.Ramp(2, []uint64{0}, []uint64{1})
		}, 2},
		{"other width", func(w sink) {
			w.Ramp(2, []uint64{0}, []uint64{0})
			w.Ramp(2, []uint64{0, 0}, []uint64{0, 0})
		}, 2},
		{"literal between", func(w sink) {
			w.Ramp(2, []uint64{0}, []uint64{0})
			w.Word(0)
			w.Ramp(2, []uint64{0}, []uint64{0})
		}, 2},
		{"empty ramp", func(w sink) {
			w.Ramp(0, []uint64{9}, []uint64{1})
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref flatSink
			s := new(Writer).Record(func(w *Writer) { tc.write(w) })
			tc.write(&ref)
			if got := len(s.ramps); got != tc.ramps {
				t.Fatalf("%d ramps, want %d", got, tc.ramps)
			}
			if got := flat(s); !slices.Equal(got, ref.ws) {
				t.Fatalf("words %v, want %v", got, ref.ws)
			}
		})
	}
}

// Set copies: the copy holds the new word and expands the ramps, and the
// original is unchanged.
func TestSetExpandsRamps(t *testing.T) {
	s := new(Writer).Record(func(w *Writer) {
		w.Word(42)
		w.Ramp(4, []uint64{10, 20}, []uint64{1, 2})
		w.Word(43)
		w.Ramp(2, []uint64{0}, []uint64{0})
	})
	want := []uint64{42, 10, 20, 11, 22, 12, 24, 13, 26, 43, 0, 0}
	if got := flat(s); !slices.Equal(got, want) {
		t.Fatalf("words %v, want %v", got, want)
	}
	m := s.Set(6, 99) // row 2, column 1 of the first ramp
	mw := slices.Clone(want)
	mw[6] = 99
	if got := flat(m); !slices.Equal(got, mw) {
		t.Fatalf("after Set: %v, want %v", got, mw)
	}
	if got := flat(s); !slices.Equal(got, want) {
		t.Fatalf("Set changed the original: %v", got)
	}
	if len(m.ramps) != 0 || len(s.ramps) != 2 {
		t.Fatalf("Set left %d ramps in the copy and %d in the original, want 0 and 2", len(m.ramps), len(s.ramps))
	}
	if s.Equal(m) || !m.Equal(literal(mw)) || !s.Equal(literal(want)) {
		t.Fatal("Equal does not compare logical words")
	}
}

func TestReaderRejects(t *testing.T) {
	zeros := new(Writer).Record(func(w *Writer) {
		w.Word(1)
		w.Ramp(3, []uint64{0}, []uint64{0})
	})
	for _, tc := range []struct {
		name string
		s    Stream
		read func(r *Reader)
		want string
	}{
		{"truncated", literal([]uint64{1}), func(r *Reader) { r.Word(); r.Word() }, "truncated at word 1"},
		{"truncated after a ramp", zeros, func(r *Reader) {
			for i := 0; i < 5; i++ {
				r.Word()
			}
		}, "truncated at word 4"},
		{"trailing", literal([]uint64{1, 2}), func(r *Reader) { r.Word() }, "1 trailing words"},
		{"trailing inside a ramp", zeros, func(r *Reader) { r.Word(); r.Word() }, "2 trailing words"},
		{"length bomb", literal([]uint64{1 << 40, 0}), func(r *Reader) { r.Count(1) }, "claims 1099511627776 elements"},
		{"count past a ramp", zeros, func(r *Reader) { r.Count(4) }, "claims 1 elements with 3 words left"},
		{"bool", literal([]uint64{2}), func(r *Reader) { r.Bool() }, "bool word 2"},
		{"below range", literal([]uint64{3}), func(r *Reader) { r.Range(4, 9, "x") }, "x 0x3 outside [0x4, 0x9)"},
		{"above range", literal([]uint64{9}), func(r *Reader) { r.Range(4, 9, "x") }, "x 0x9 outside"},
		{"first failure wins", literal([]uint64{0}), func(r *Reader) {
			r.Fail(errors.New("first"))
			r.Fail(errors.New("second"))
		}, `section "sec": first`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader("sec", tc.s)
			tc.read(r)
			if err := r.Fin(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fin = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestRangeReturnsZeroOnFailure(t *testing.T) {
	r := NewReader("sec", literal([]uint64{300, 5}))
	if v := r.Range(0, 256, "vector"); v != 0 || r.Err() == nil {
		t.Fatalf("Range = %d, err %v; want 0 and an error", v, r.Err())
	}
	if v := r.Word(); v != 0 {
		t.Fatalf("Word after a failure = %d, want 0", v)
	}
}

// sink is what FuzzWords writes to: a Writer, a sizing Writer, or the
// plain per-word reference.
type sink interface {
	Word(x uint64)
	Bool(b bool)
	Table(n, per int, rows func())
	Ramp(n int, first, step []uint64)
}

// flatSink is the reference: every call appends its words one by one.
type flatSink struct{ ws []uint64 }

func (f *flatSink) Word(x uint64) { f.ws = append(f.ws, x) }

func (f *flatSink) Bool(b bool) {
	if b {
		f.Word(1)
	} else {
		f.Word(0)
	}
}

func (f *flatSink) Table(n, per int, rows func()) {
	f.Word(uint64(n))
	rows()
}

func (f *flatSink) Ramp(n int, first, step []uint64) {
	for i := 0; i < n; i++ {
		for c := range first {
			f.Word(first[c] + uint64(i)*step[c])
		}
	}
}

// play decodes data into a sequence of writer calls on w. The same data
// always makes the same calls.
func play(data []byte, w sink) {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint64(b)
	}
	// value spreads a byte over the word, so wrapping steps happen.
	value := func() uint64 {
		b := next()
		return b<<(b%61) | b
	}
	var first, step []uint64 // the last ramp written, and its rows
	var rows int
	ramp := func(n int, f, s []uint64) {
		w.Ramp(n, f, s)
		first, step, rows = f, s, n
	}
	for op := 0; len(data) > 0 && op < 64; op++ {
		switch next() % 7 {
		case 0:
			w.Word(value())
		case 1:
			w.Bool(next()&1 == 1)
		case 2: // a table of literal rows
			n, per := int(next()%4), int(1+next()%3)
			vs := make([]uint64, n*per)
			for i := range vs {
				vs[i] = value()
			}
			w.Table(n, per, func() {
				for _, x := range vs {
					w.Word(x)
				}
			})
		case 3: // a table whose rows are one ramp, as EPT writes them
			n, k := int(next()%5), int(1+next()%maxRampWidth)
			f, s := make([]uint64, k), make([]uint64, k)
			for c := range f {
				f[c], s[c] = value(), next()%3
			}
			w.Table(n, k, func() { w.Ramp(n, f, s) })
			first, step, rows = f, s, n
		case 4: // any ramp; a step of ^0 counts down
			n, k := int(next()%6), int(1+next()%maxRampWidth)
			f, s := make([]uint64, k), make([]uint64, k)
			for c := range f {
				f[c], s[c] = value(), next()%3-1
			}
			ramp(n, f, s)
		case 5: // a ramp that continues the last one
			if first == nil {
				break
			}
			f := make([]uint64, len(first))
			for c := range f {
				f[c] = first[c] + uint64(rows)*step[c]
			}
			ramp(int(next()%6), f, step)
		case 6: // zeros
			k := int(1 + next()%2)
			ramp(int(next()%40), make([]uint64, k), make([]uint64, k))
		}
	}
}

// FuzzWords plays a random sequence of Word, Bool, Table and Ramp calls
// into Record, a sizing Writer and a plain per-word reference, and
// checks that the recorded stream is exactly sized, stores what one
// writing pass stores (the counting pass merged the same ramps), and is
// the reference word for word: its
// Reader yields exactly the reference, its Len and FNV fold match, Set
// and Equal agree with the reference, and Count, truncation and Fin's
// trailing-word errors fire at the same logical positions as on the
// reference stream. The first three bytes pick the read positions and
// the word Set writes.
func FuzzWords(f *testing.F) {
	f.Add([]byte{3, 1, 9, 4, 2, 3, 5, 1, 1, 0, 5, 3}) // a ramp, then one that continues it
	f.Add([]byte{0, 2, 7, 6, 0, 32, 6, 0, 32, 0, 9, 6, 0, 32})
	f.Add([]byte{5, 4, 1, 3, 3, 2, 8, 2, 40, 1, 90, 0, 5, 4, 0, 2, 1, 2})
	f.Add([]byte{9, 0, 3, 4, 4, 0, 255, 0, 0, 5, 2, 1, 1, 3, 2, 5, 1})
	f.Add([]byte{1, 1, 1, 2, 3, 1, 5, 6, 7, 8, 4, 3, 1, 2, 0, 5, 5, 0, 6, 1, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		at, per, val := int(data[0]), int(data[1]%4), uint64(data[2])
		data = data[3:]
		s := new(Writer).Record(func(w *Writer) { play(data, w) })
		var w Writer
		play(data, &w)
		sizer := NewSizer()
		play(data, sizer)
		var ref flatSink
		play(data, &ref)
		n := len(ref.ws)

		if w.Len() != n || s.Len() != n || sizer.Len() != n {
			t.Fatalf("Len: writer %d, stream %d, sizer %d; reference %d", w.Len(), s.Len(), sizer.Len(), n)
		}
		checkStream(t, s)
		checkExact(t, s)
		if !slices.Equal(s.lit, w.s.lit) || !slices.Equal(s.ramps, w.s.ramps) {
			t.Fatalf("recorded %d literal words and ramps %+v; one writing pass stored %d and %+v",
				len(s.lit), s.ramps, len(w.s.lit), w.s.ramps)
		}
		if got := flat(s); !slices.Equal(got, ref.ws) {
			t.Fatalf("read %v\nwant %v", got, ref.ws)
		}
		h := FNVOffset
		for _, x := range ref.ws {
			h = FNVWord(h, x)
		}
		if got := s.Fold(FNVOffset); got != h {
			t.Fatalf("fold %#x, reference %#x", got, h)
		}
		if !s.Equal(literal(ref.ws)) || !literal(ref.ws).Equal(s) || !s.Equal(s) {
			t.Fatal("stream not Equal to its reference")
		}

		// Reads stop at the same logical positions with the same errors.
		for _, p := range []int{at % (n + 2), n - 1, n, n + 1} {
			if p < 0 {
				continue
			}
			r, lr := NewReader("sec", s), NewReader("sec", literal(ref.ws))
			for i := 0; i < p; i++ {
				if x, lx := r.Word(), lr.Word(); x != lx {
					t.Fatalf("word %d: %#x, reference %#x", i, x, lx)
				}
			}
			if p > n && fmt.Sprint(r.Err()) != fmt.Sprintf("snapshot: section %q truncated at word %d", "sec", n) {
				t.Fatalf("reading %d of %d words: %v", p, n, r.Err())
			}
			if c, lc := r.Count(per), lr.Count(per); c != lc || fmt.Sprint(r.Err()) != fmt.Sprint(lr.Err()) {
				t.Fatalf("Count(%d) after %d words: %d, %v; reference %d, %v", per, p, c, r.Err(), lc, lr.Err())
			}
			if err, lerr := r.Fin(), lr.Fin(); fmt.Sprint(err) != fmt.Sprint(lerr) {
				t.Fatalf("Fin after %d words and a count: %v, reference %v", p, err, lerr)
			}
			if p < n {
				r := NewReader("sec", s)
				for i := 0; i < p; i++ {
					r.Word()
				}
				if want := fmt.Sprintf("snapshot: section %q has %d trailing words", "sec", n-p); fmt.Sprint(r.Fin()) != want {
					t.Fatalf("Fin after %d of %d words: %v", p, n, r.Fin())
				}
			}
		}

		// Set copies: the original keeps its words, the copy differs in
		// exactly one.
		if n == 0 {
			return
		}
		i := at % n
		m := s.Set(i, val)
		checkStream(t, m)
		want := slices.Clone(ref.ws)
		want[i] = val
		if got := flat(m); !slices.Equal(got, want) {
			t.Fatalf("Set(%d, %#x): %v\nwant %v", i, val, got, want)
		}
		if got := flat(s); !slices.Equal(got, ref.ws) {
			t.Fatalf("Set(%d) changed the original", i)
		}
		if s.Equal(m) != (ref.ws[i] == val) || !m.Equal(literal(want)) {
			t.Fatalf("Equal after Set(%d, %#x) disagrees with the reference", i, val)
		}
	})
}

// checkStream checks the stored form's invariants: the logical length
// adds up, ramps are non-empty and ordered, and no ramp continues the one
// just before it (the writer merges those).
func checkStream(t *testing.T, s Stream) {
	t.Helper()
	n := len(s.lit)
	for j, r := range s.ramps {
		if r.rows < 1 || r.k < 1 || r.k > maxRampWidth || r.at > len(s.lit) || j > 0 && r.at < s.ramps[j-1].at {
			t.Fatalf("ramp %d malformed: %+v", j, r)
		}
		if j > 0 && s.ramps[j-1].continuedBy(r.at, r.first[:r.k], r.step[:r.k]) {
			t.Fatalf("ramp %d continues ramp %d and was not merged: %+v", j, j-1, s.ramps)
		}
		n += r.rows * r.k
	}
	if n != s.n {
		t.Fatalf("stored words and ramps hold %d words, Len %d", n, s.n)
	}
}

// FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c; FNVWord folds a word's bytes
// least significant first.
func TestFNV(t *testing.T) {
	if h := FNVBytes(FNVOffset, "a"); h != 0xaf63dc4c8601ec8c {
		t.Fatalf("FNVBytes(a) = %#x", h)
	}
	if FNVBytes(FNVOffset, []byte("ab")) != FNVBytes(FNVOffset, "ab") {
		t.Fatal("string and []byte folds differ")
	}
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if FNVWord(FNVOffset, 0x0807060504030201) != FNVBytes(FNVOffset, b) {
		t.Fatal("FNVWord is not the little-endian byte fold")
	}
}
