package virtio

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"svtsim/internal/ept"
	"svtsim/internal/mem"
)

// Guest-physical map of the block rig: [0, 64 KB) read-write, one
// read-only page above it, nothing mapped beyond.
const (
	rigRO       = 0x10000
	rigUnmapped = 0x20000
	rigHdr      = 0x4000
	rigData     = 0x5000
	rigSts      = 0x7000
)

// recTransport records each submission and completes it at once.
type recTransport struct {
	calls int
	ok    bool
}

func (r *recTransport) Submit(write bool, sector uint64, m MemIO, gpa uint64, n uint32, done func(ok bool)) {
	r.calls++
	done(r.ok)
}

type blkRig struct {
	m  MemIO
	q  *Queue
	b  *BlkBackend
	tr *recTransport
}

func newBlkRig(t *testing.T) *blkRig {
	t.Helper()
	host := mem.New(1 << 22)
	tbl := ept.New("blk")
	if err := tbl.Map(0, 0, rigRO, ept.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(rigRO, rigRO, mem.PageSize, ept.PermR); err != nil {
		t.Fatal(err)
	}
	m := ept.NewView(host, tbl)
	l := NewLayout(0x1000, 8)
	q, err := NewQueue(l, m, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recTransport{ok: true}
	b := NewBlkBackend("vblk0", 0xFE000000, m, tr)
	b.NotifyHost = b.OnIRQ
	ConfigureQueue(func(a, v uint64) { b.MMIOWrite(a, v) }, b.Base, 0, l)
	return &blkRig{m: m, q: q, b: b, tr: tr}
}

// post writes a header of type typ at rigHdr, posts chain and kicks,
// returning the panic message ("" if none).
func (r *blkRig) post(t *testing.T, typ uint32, chain []Buf) (msg string) {
	t.Helper()
	var hdr [BlkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], typ)
	binary.LittleEndian.PutUint64(hdr[8:16], 3)
	if err := r.m.Write(rigHdr, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.q.Post(chain); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	r.b.MMIOWrite(r.b.Base+RegQueueNotify, 0)
	return ""
}

// Each request chain is checked before any data moves. A chain a
// well-behaved driver cannot build panics naming the device, and the
// transport never sees it.
func TestBlkKickRejectsMalformedChains(t *testing.T) {
	hdr := Buf{GPA: rigHdr, Len: BlkHeaderSize}
	sts := Buf{GPA: rigSts, Len: 1, DeviceWrite: true}
	in := Buf{GPA: rigData, Len: 512, DeviceWrite: true}
	out := Buf{GPA: rigData, Len: 512}
	for _, tc := range []struct {
		name  string
		typ   uint32
		chain []Buf
		want  string // panic substring
	}{
		{"one descriptor", BlkTIn, []Buf{hdr}, "malformed chain (1 bufs)"},
		{"read without data", BlkTIn, []Buf{hdr, sts}, "malformed chain (2 bufs)"},
		{"read with two data buffers", BlkTIn, []Buf{hdr, in, in, sts}, "malformed chain (4 bufs)"},
		{"device-writable header", BlkTIn, []Buf{{GPA: rigHdr, Len: BlkHeaderSize, DeviceWrite: true}, in, sts}, "header"},
		{"short header", BlkTIn, []Buf{{GPA: rigHdr, Len: 8}, in, sts}, "header"},
		{"driver-readable status", BlkTIn, []Buf{hdr, in, {GPA: rigSts, Len: 1}}, "status"},
		{"empty status", BlkTIn, []Buf{hdr, in, {GPA: rigSts, DeviceWrite: true}}, "status"},
		{"read into a driver-readable buffer", BlkTIn, []Buf{hdr, out, sts}, "direction"},
		{"write from a device-writable buffer", BlkTOut, []Buf{hdr, in, sts}, "direction"},
		{"read into read-only memory", BlkTIn, []Buf{hdr, {GPA: rigRO, Len: 512, DeviceWrite: true}, sts}, "data write"},
		{"read straddling into unmapped memory", BlkTIn, []Buf{hdr, {GPA: rigRO - 256, Len: 512, DeviceWrite: true}, sts}, "data write"},
		{"write from unmapped memory", BlkTOut, []Buf{hdr, {GPA: rigUnmapped, Len: 512}, sts}, "data read"},
	} {
		r := newBlkRig(t)
		msg := r.post(t, tc.typ, tc.chain)
		if !strings.Contains(msg, "vblk0") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %q, want one naming vblk0 and %q", tc.name, msg, tc.want)
		}
		if r.tr.calls != 0 {
			t.Errorf("%s: transport saw %d submissions of a malformed chain", tc.name, r.tr.calls)
		}
	}
}

// Well-formed chains reach the transport; the used entry carries the
// status and, for a successful read, the data length.
func TestBlkKickStatuses(t *testing.T) {
	hdr := Buf{GPA: rigHdr, Len: BlkHeaderSize}
	sts := Buf{GPA: rigSts, Len: 1, DeviceWrite: true}
	in := Buf{GPA: rigData, Len: 512, DeviceWrite: true}
	out := Buf{GPA: rigData, Len: 512}
	for _, tc := range []struct {
		name    string
		typ     uint32
		chain   []Buf
		ok      bool // the transport's verdict
		submits int
		status  byte
		used    uint32
	}{
		{"read", BlkTIn, []Buf{hdr, in, sts}, true, 1, BlkSOK, 513},
		{"write", BlkTOut, []Buf{hdr, out, sts}, true, 1, BlkSOK, 1},
		{"failed read", BlkTIn, []Buf{hdr, in, sts}, false, 1, BlkSIOErr, 1},
		{"failed write", BlkTOut, []Buf{hdr, out, sts}, false, 1, BlkSIOErr, 1},
		{"flush", 4, []Buf{hdr, sts}, true, 0, BlkSUnsupp, 1},
		{"get-id", 8, []Buf{hdr, {GPA: rigData, Len: 20, DeviceWrite: true}, sts}, true, 0, BlkSUnsupp, 1},
		{"discard", 11, []Buf{hdr, out, sts}, true, 0, BlkSUnsupp, 1},
	} {
		r := newBlkRig(t)
		r.tr.ok = tc.ok
		if err := r.m.Write(rigData, []byte{0xee, 0xee, 0xee, 0xee}); err != nil {
			t.Fatal(err)
		}
		if msg := r.post(t, tc.typ, tc.chain); msg != "" {
			t.Fatalf("%s: panic %q", tc.name, msg)
		}
		if r.tr.calls != tc.submits {
			t.Errorf("%s: %d submissions, want %d", tc.name, r.tr.calls, tc.submits)
		}
		var got [1]byte
		if err := r.m.Read(rigSts, got[:]); err != nil {
			t.Fatal(err)
		}
		_, used, ok, err := r.q.PopUsed()
		if err != nil || !ok {
			t.Fatalf("%s: no used entry (%v)", tc.name, err)
		}
		if got[0] != tc.status || used != tc.used {
			t.Errorf("%s: status %d used %d, want %d and %d", tc.name, got[0], used, tc.status, tc.used)
		}
		var data [4]byte
		if err := r.m.Read(rigData, data[:]); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(data[:]); tc.submits == 0 && v != 0xeeeeeeee {
			t.Errorf("%s: an unsupported request touched the data buffer (%#x)", tc.name, v)
		}
	}
}
