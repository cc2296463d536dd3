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
package words

import "fmt"

// Writer builds one section's word stream. A sizing writer only counts
// the words it is given, so sizing and capturing walk the same save
// code; bulk tables write through Table, which a sizing writer counts in
// O(1).
type Writer struct {
	words  []uint64
	n      int  // words written
	sizing bool // count only; words stays empty
}

// NewWriter returns a writer whose slab has room for n words.
func NewWriter(n int) *Writer { return &Writer{words: make([]uint64, 0, n)} }

// NewSizer returns a writer that only counts words.
func NewSizer() *Writer { return &Writer{sizing: true} }

// Len reports the number of words written (or counted).
func (w *Writer) Len() int { return w.n }

// Words returns the written words (empty on a sizing writer).
func (w *Writer) Words() []uint64 { return w.words }

// Word writes one word.
func (w *Writer) Word(x uint64) {
	w.n++
	if !w.sizing {
		w.words = append(w.words, x)
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
// produced by rows. A sizing writer counts the rows without calling rows.
func (w *Writer) Table(n, per int, rows func()) {
	w.Word(uint64(n))
	if w.sizing {
		w.n += n * per
		return
	}
	rows()
}

// Reader consumes one named section's word stream, recording the first
// error. Reads after an error return zero.
type Reader struct {
	name string
	sec  []uint64
	pos  int
	err  error
}

// NewReader returns a reader over section name's words.
func NewReader(name string, ws []uint64) *Reader { return &Reader{name: name, sec: ws} }

// Word reads one word.
func (r *Reader) Word() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.sec) {
		r.err = fmt.Errorf("snapshot: section %q truncated at word %d", r.name, r.pos)
		return 0
	}
	w := r.sec[r.pos]
	r.pos++
	return w
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
	if left := len(r.sec) - r.pos; n > uint64(left/per) {
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
	if r.pos != len(r.sec) {
		return fmt.Errorf("snapshot: section %q has %d trailing words", r.name, len(r.sec)-r.pos)
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
