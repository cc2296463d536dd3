// Package words is the snapshot word stream: the writer and reader every
// stateful component's codec speaks, and the FNV-1a fold the snapshot,
// machine and scenario digests share.
//
// A component owns its format through a SaveWords(*Writer) /
// LoadWords(*Reader) pair. SaveWords writes the component's
// architectural state; LoadWords parses a whole section into locals,
// rejects any value the component could not hold (Fail), and applies
// the state only when the reader has no error — so a malformed section
// leaves its component untouched.
//
// A section is a sequence of logical words, and that sequence is its
// format: digests, sizes and every reader see only logical words. A
// Stream stores them as literal words plus ramps. A ramp is n rows of k
// words whose column c in row i is first[c] + i·step[c], so a run of
// consecutive EPT mappings or a line of zeros costs one ramp instead of
// a copy of every word.
package words

import "fmt"

// maxRampWidth bounds a ramp's row width k, so a ramp is a fixed-size
// value. The widest row a codec writes is an EPT mapping's three words.
const maxRampWidth = 3

// ramp is n rows of k words standing before literal word at.
type ramp struct {
	at, rows, k int
	first, step [maxRampWidth]uint64
}

// word returns word col of row i.
func (r *ramp) word(i, col int) uint64 { return r.first[col] + uint64(i)*r.step[col] }

// Stream is one section's words as stored: literal words, and ramps
// between them. Every ramp has at least one row, and ramps are ordered
// by position. A Stream is never written in place once built, so copies
// share its slices safely.
type Stream struct {
	lit   []uint64
	ramps []ramp
	n     int // logical words
}

// Len reports the number of logical words.
func (s Stream) Len() int { return s.n }

// Fold folds every logical word into h with FNVWord.
func (s Stream) Fold(h uint64) uint64 {
	l := 0
	for i := range s.ramps {
		r := &s.ramps[i]
		for _, x := range s.lit[l:r.at] {
			h = FNVWord(h, x)
		}
		l = r.at
		for row := 0; row < r.rows; row++ {
			for c := 0; c < r.k; c++ {
				h = FNVWord(h, r.word(row, c))
			}
		}
	}
	for _, x := range s.lit[l:] {
		h = FNVWord(h, x)
	}
	return h
}

// Equal reports whether s and t hold the same logical words, however
// each stores them.
func (s Stream) Equal(t Stream) bool {
	if s.n != t.n {
		return false
	}
	// Streams shared by a copy-on-write clone compare by identity.
	if len(s.lit) == len(t.lit) && len(s.ramps) == len(t.ramps) &&
		(len(s.lit) == 0 || &s.lit[0] == &t.lit[0]) &&
		(len(s.ramps) == 0 || &s.ramps[0] == &t.ramps[0]) {
		return true
	}
	a, b := NewReader("", s), NewReader("", t)
	for i := 0; i < s.n; i++ {
		if a.Word() != b.Word() {
			return false
		}
	}
	return true
}

// Set returns a copy of s whose logical word i is x; s is unchanged.
// The copy holds every logical word as a literal word, its ramps
// expanded. i must be in [0, Len).
func (s Stream) Set(i int, x uint64) Stream {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("words: Set(%d) on a stream of %d words", i, s.n))
	}
	lit := make([]uint64, s.n)
	r := NewReader("", s)
	for j := range lit {
		lit[j] = r.Word()
	}
	lit[i] = x
	return Stream{lit: lit, n: s.n}
}

// Writer builds one section's word stream. A Writer runs in one of three
// passes over the same save code: Record counts a section's literal
// words and ramps, then writes them into storage of exactly that size;
// a sizing writer (NewSizer) counts only logical words, and bulk tables
// written through Table count themselves in O(1) there. The zero Writer
// is ready to Record.
type Writer struct {
	s    Stream
	pass pass
	// A counting pass tallies the literal words and ramps the stream
	// will hold, keeping only the last ramp so merges count exactly.
	lits, ramps int
	last        ramp
}

// pass is what a Writer does with the words it is given.
type pass uint8

const (
	writing  pass = iota // store them
	counting             // count literal words and ramps
	sizing               // count logical words only
)

// NewSizer returns a writer that only counts logical words.
func NewSizer() *Writer { return &Writer{pass: sizing} }

// Record returns the section save writes, using w as its scratch
// writer. A counting pass sizes the section's literal words and ramps,
// and the writing pass fills slices of exactly that size, which the
// stream keeps without a copy. save must write the same words on both
// passes.
func (w *Writer) Record(save func(w *Writer)) Stream {
	*w = Writer{pass: counting}
	save(w)
	n, lits, ramps := w.s.n, w.lits, w.ramps
	*w = Writer{s: Stream{lit: make([]uint64, 0, lits), ramps: make([]ramp, 0, ramps)}}
	save(w)
	s := w.s
	*w = Writer{}
	if s.n != n || len(s.lit) != lits || len(s.ramps) != ramps {
		panic(fmt.Sprintf("words: counted %d words (%d literal, %d ramps), wrote %d (%d literal, %d ramps)",
			n, lits, ramps, s.n, len(s.lit), len(s.ramps)))
	}
	return s
}

// Len reports the number of logical words written (or counted).
func (w *Writer) Len() int { return w.s.n }

// Reset empties the writer for the next section.
func (w *Writer) Reset() { *w = Writer{pass: w.pass} }

// Word writes one word.
func (w *Writer) Word(x uint64) {
	w.s.n++
	switch w.pass {
	case writing:
		w.s.lit = append(w.s.lit, x)
	case counting:
		w.lits++
	}
}

// Bool writes b as 1 or 0.
func (w *Writer) Bool(b bool) {
	if b {
		w.Word(1)
	} else {
		w.Word(0)
	}
}

// Table writes a count word and then n rows of per words each, all
// produced by rows. A sizing writer counts the rows without calling rows;
// the other passes check that rows wrote n·per words, which keeps a
// sizing writer's count exact.
func (w *Writer) Table(n, per int, rows func()) {
	w.Word(uint64(n))
	if w.pass == sizing {
		w.s.n += n * per
		return
	}
	at := w.s.n
	rows()
	if got := w.s.n - at; got != n*per {
		panic(fmt.Sprintf("words: a table of %d rows of %d words wrote %d words", n, per, got))
	}
}

// Ramp writes n rows of len(first) words; column c of row i is
// first[c] + i·step[c]. A run of zeros is a ramp whose steps are all 0.
// A ramp that continues the one written just before it extends that
// ramp instead of starting another.
func (w *Writer) Ramp(n int, first, step []uint64) {
	k := len(first)
	if n < 0 || k == 0 || k > maxRampWidth || len(step) != k {
		panic(fmt.Sprintf("words: ramp of %d rows, %d first and %d step words", n, k, len(step)))
	}
	w.s.n += n * k
	if w.pass == sizing || n == 0 {
		return
	}
	var at int
	var last *ramp // the ramp this one may continue
	if w.pass == counting {
		at = w.lits
		if w.ramps > 0 {
			last = &w.last
		}
	} else {
		at = len(w.s.lit)
		if j := len(w.s.ramps) - 1; j >= 0 {
			last = &w.s.ramps[j]
		}
	}
	if last != nil && last.continuedBy(at, first, step) {
		last.rows += n
		return
	}
	r := ramp{at: at, rows: n, k: k}
	copy(r.first[:], first)
	copy(r.step[:], step)
	if w.pass == counting {
		w.last = r
		w.ramps++
		return
	}
	w.s.ramps = append(w.s.ramps, r)
}

// continuedBy reports whether a ramp with first and step, written before
// literal word at, is the rows that follow r.
func (r *ramp) continuedBy(at int, first, step []uint64) bool {
	if r.at != at || r.k != len(first) {
		return false
	}
	for c := range first {
		if step[c] != r.step[c] || first[c] != r.word(r.rows, c) {
			return false
		}
	}
	return true
}

// Reader consumes one named section's logical words, recording the
// first error. Reads after an error return zero.
type Reader struct {
	name     string
	s        Stream
	pos      int // logical words read
	lit      int // literal words read
	ramp     int // the next ramp
	row, col int // the next word of that ramp
	err      error
}

// NewReader returns a reader over section name's words.
func NewReader(name string, s Stream) *Reader { return &Reader{name: name, s: s} }

// Word reads one word.
func (r *Reader) Word() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= r.s.n {
		r.err = fmt.Errorf("snapshot: section %q truncated at word %d", r.name, r.pos)
		return 0
	}
	r.pos++
	if r.ramp < len(r.s.ramps) && r.s.ramps[r.ramp].at == r.lit {
		rp := &r.s.ramps[r.ramp]
		x := rp.word(r.row, r.col)
		if r.col++; r.col == rp.k {
			r.col = 0
			if r.row++; r.row == rp.rows {
				r.row = 0
				r.ramp++
			}
		}
		return x
	}
	x := r.s.lit[r.lit]
	r.lit++
	return x
}

// Bool reads a word written by Writer.Bool; any value but 0 or 1 fails.
func (r *Reader) Bool() bool {
	b := r.Word()
	if b > 1 {
		r.Fail(fmt.Errorf("bool word %d", b))
	}
	return b == 1
}

// Range reads a word that must lie in [lo, hi), returning 0 (and
// failing) otherwise. Loaders read a strictly ascending set by passing
// the previous element plus one as lo.
func (r *Reader) Range(lo, hi uint64, what string) uint64 {
	x := r.Word()
	if r.err == nil && (x < lo || x >= hi) {
		r.Fail(fmt.Errorf("%s %#x outside [%#x, %#x)", what, x, lo, hi))
		return 0
	}
	return x
}

// Count reads a length word and bounds-checks it against what the
// section can still hold at per words per element, so corrupt lengths
// fail cleanly instead of allocating wildly.
func (r *Reader) Count(per int) int {
	n := r.Word()
	if r.err != nil {
		return 0
	}
	if per < 1 {
		per = 1
	}
	if left := r.s.n - r.pos; n > uint64(left/per) {
		r.err = fmt.Errorf("snapshot: section %q claims %d elements with %d words left", r.name, n, left)
		return 0
	}
	return int(n)
}

// Fail records err, naming the section, unless an error is already
// recorded. Loaders call it to reject a value their component cannot
// hold.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: section %q: %w", r.name, err)
	}
}

// Err returns the first error recorded.
func (r *Reader) Err() error { return r.err }

// Fin returns the first error, or an error if words remain unread.
func (r *Reader) Fin() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != r.s.n {
		return fmt.Errorf("snapshot: section %q has %d trailing words", r.name, r.s.n-r.pos)
	}
	return nil
}

// FNVOffset is the FNV-1a 64-bit offset basis every digest starts from.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

// FNVWord folds the eight bytes of x, least significant first, into h.
func FNVWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// FNVBytes folds the bytes of p into h.
func FNVBytes[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime
	}
	return h
}
