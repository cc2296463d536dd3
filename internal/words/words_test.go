package words

import (
	"errors"
	"strings"
	"testing"
)

func TestSizerMatchesWriter(t *testing.T) {
	save := func(w *Writer) {
		w.Word(7)
		w.Bool(true)
		w.Table(3, 2, func() {
			for i := uint64(0); i < 6; i++ {
				w.Word(i)
			}
		})
	}
	s := NewSizer()
	save(s)
	w := NewWriter(s.Len())
	save(w)
	if s.Len() != 9 || w.Len() != 9 || len(w.Words()) != 9 || len(s.Words()) != 0 {
		t.Fatalf("sizer %d, writer %d with %d words", s.Len(), w.Len(), len(w.Words()))
	}
}

func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		ws   []uint64
		read func(r *Reader)
		want string
	}{
		{"truncated", []uint64{1}, func(r *Reader) { r.Word(); r.Word() }, "truncated at word 1"},
		{"trailing", []uint64{1, 2}, func(r *Reader) { r.Word() }, "1 trailing words"},
		{"length bomb", []uint64{1 << 40, 0}, func(r *Reader) { r.Count(1) }, "claims 1099511627776 elements"},
		{"bool", []uint64{2}, func(r *Reader) { r.Bool() }, "bool word 2"},
		{"below range", []uint64{3}, func(r *Reader) { r.Range(4, 9, "x") }, "x 0x3 outside [0x4, 0x9)"},
		{"above range", []uint64{9}, func(r *Reader) { r.Range(4, 9, "x") }, "x 0x9 outside"},
		{"first failure wins", []uint64{0}, func(r *Reader) {
			r.Fail(errors.New("first"))
			r.Fail(errors.New("second"))
		}, `section "sec": first`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader("sec", tc.ws)
			tc.read(r)
			if err := r.Fin(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fin = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestRangeReturnsZeroOnFailure(t *testing.T) {
	r := NewReader("sec", []uint64{300, 5})
	if v := r.Range(0, 256, "vector"); v != 0 || r.Err() == nil {
		t.Fatalf("Range = %d, err %v; want 0 and an error", v, r.Err())
	}
	if v := r.Word(); v != 0 {
		t.Fatalf("Word after a failure = %d, want 0", v)
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
