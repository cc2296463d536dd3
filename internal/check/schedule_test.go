package check

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"svtsim/internal/qcheck"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Decoding a canonical encoding and re-encoding must be
	// byte-identical — that is what makes repro files exact.
	f := func(seed int64) bool {
		s := Generate(seed % 10000)
		enc := s.Encode()
		dec, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Logf("decode of generated schedule failed: %v\n%s", err, enc)
			return false
		}
		return bytes.Equal(dec.Encode(), enc)
	}
	if err := quick.Check(f, qcheck.Config(t, 50)); err != nil {
		t.Error(err)
	}
}

func TestDecodeComments(t *testing.T) {
	in := "# a comment\nsvtsched v1\n# another\nseed 7\nvcpus 2\n\nop smpwake 1 2\nop cpuid 1 0\n"
	s, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.VCPUs != 2 || len(s.Ops) != 2 {
		t.Fatalf("decoded %+v", s)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no header", "seed 1\nop cpuid 1 0\n"},
		{"bad op", "svtsched v1\nseed 1\nop warp 1 0\n"},
		{"no ops", "svtsched v1\nseed 1\n"},
		{"smpwake on 1 vcpu", "svtsched v1\nseed 1\nop smpwake 1 0\n"},
		{"bad vcpus", "svtsched v1\nvcpus 3\nop cpuid 1 0\n"},
		{"bad rate", "svtsched v1\nfaults wakeup-drop 1.5\nop cpuid 1 0\n"},
		{"bad directive", "svtsched v1\nspeed 9\nop cpuid 1 0\n"},
		{"op arity", "svtsched v1\nop cpuid 1\n"},
		{"unknown port", "svtsched v1\nport vax\nop cpuid 1 0\n"},
		{"port arity", "svtsched v1\nport\nop cpuid 1 0\n"},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: decode accepted %q", c.name, c.in)
		}
	}
}

func TestFromBytesAlwaysValid(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{1},
		{3, 9, 1, 2},
		bytes.Repeat([]byte{0xFF}, 64),
		[]byte("arbitrary fuzz bytes of some length to map"),
	}
	for _, in := range inputs {
		s := fromBytes(in)
		if err := s.validate(); err != nil {
			t.Errorf("fromBytes(%v) produced invalid schedule: %v", in, err)
		}
		if len(s.Ops) > 13 {
			t.Errorf("fromBytes(%v) produced %d ops, want bounded", in, len(s.Ops))
		}
	}
}

// TestReproRoundTrip pins the -replay contract end to end: a shrunk
// schedule written by WriteRepro decodes and re-encodes byte-identically,
// and ReplayFile accepts it.
// A schedule names its port only when it is not the default: an armlike
// schedule round-trips its port line, and an x86 one, however spelled,
// encodes without one, as every corpus file was written.
func TestSchedulePortLine(t *testing.T) {
	s := Generate(77)
	s.Port = "armlike"
	enc := s.Encode()
	if !bytes.Contains(enc, []byte("\nport armlike\n")) {
		t.Fatalf("armlike schedule encodes without its port:\n%s", enc)
	}
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Port != "armlike" || !bytes.Equal(dec.Encode(), enc) {
		t.Fatalf("decoded port %q; re-encoding:\n%s\nvs\n%s", dec.Port, dec.Encode(), enc)
	}
	x86, err := Decode(strings.NewReader("svtsched v1\nport x86\nop cpuid 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if x86.Port != "" || strings.Contains(x86.String(), "port") {
		t.Fatalf("x86 schedule kept port %q:\n%s", x86.Port, x86)
	}
}

func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Generate(77)
	min := Shrink(s, nil) // passing schedule: Shrink returns it untouched
	path, err := WriteRepro(dir, min)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), raw) {
		t.Fatalf("repro file does not round-trip byte-identically:\n%q\nvs\n%q", dec.Encode(), raw)
	}
	if filepath.Base(path) != "repro-77.sched" {
		t.Fatalf("repro name = %s", filepath.Base(path))
	}
	var out bytes.Buffer
	if err := ReplayFile(&out, path); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
}
