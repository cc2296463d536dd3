package guest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"svtsim/internal/cost"
	"svtsim/internal/cpu"
	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
	"svtsim/internal/vmcs"
)

// failRXPosts refuses every write of a device-writable descriptor into
// one virtqueue's table: posting an RX buffer fails, while recycling a
// used chain (which clears the flags) still works.
type failRXPosts struct {
	virtio.MemIO
	l virtio.Layout
}

func (f failRXPosts) Write(gpa uint64, p []byte) error {
	if gpa >= f.l.Desc && gpa < f.l.Avail && len(p) == 16 && binary.LittleEndian.Uint16(p[12:])&virtio.DescFWrite != 0 {
		return errors.New("descriptor write refused")
	}
	return f.MemIO.Write(gpa, p)
}

// runNative runs body as a native guest on a bare core, resuming it past
// every trapped instruction, and returns what the body panicked with.
func runNative(body func(p *cpu.Port)) (panicked any) {
	m := cost.Baseline()
	c := cpu.New(sim.New(), &m, 1)
	g := cpu.NewNativeGuest("l2", c, 0, body)
	v := vmcs.New("vmcs")
	defer func() { panicked = recover() }()
	for {
		if e := c.RunGuest(0, v, g, nil); e.Reason == isa.ExitVMCall && e.Qualification == cpu.QualGuestDone {
			return nil
		}
	}
}

// newNetFixture builds a driver over a native guest's port, with
// device-side handles on its TX and RX rings.
func newNetFixture(p *cpu.Port) (e *Env, d *NetDriver, tx, rx *virtio.Queue) {
	e = testEnv()
	e.Port = p
	d, err := NewNetDriver(e, 0x24, 0xFE000000, 0x200000)
	if err != nil {
		panic(err)
	}
	if tx, err = virtio.NewQueue(d.TX.L, e.Mem, false); err != nil {
		panic(err)
	}
	if rx, err = virtio.NewQueue(d.RX.L, e.Mem, false); err != nil {
		panic(err)
	}
	return e, d, tx, rx
}

// must panics on a device-side ring error inside a guest body.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// A received packet's RX buffer goes back on the ring; when that repost
// fails, the driver panics naming itself instead of silently losing one
// buffer of the device's RX capacity.
func TestNetRXRepostFailurePanics(t *testing.T) {
	got := runNative(func(p *cpu.Port) {
		e, d, _, dev := newNetFixture(p)
		// The device fills the first posted RX buffer.
		head, _, ok, err := dev.PopAvail()
		if !ok || err != nil {
			panic(fmt.Sprintf("no RX buffer posted: %v", err))
		}
		must(dev.PushUsed(head, 64))
		d.RX.Mem = failRXPosts{e.Mem, d.RX.L}
		d.OnIRQ()
	})
	if msg, _ := got.(string); !strings.HasPrefix(msg, "guest net: rx repost: ") {
		t.Fatalf("OnIRQ with a failing repost: panic %v, want \"guest net: rx repost: ...\"", got)
	}
}

// A used RX head the driver never posted is a device bug: the driver
// panics naming itself and the head, rather than reading the packet
// from guest address 0 and posting a buffer there.
func TestNetRXUnknownHeadPanics(t *testing.T) {
	got := runNative(func(p *cpu.Port) {
		_, d, _, dev := newNetFixture(p)
		must(dev.PushUsed(netRXBuffers+6, 64))
		d.OnIRQ()
	})
	want := fmt.Sprintf("guest net: driver at 0xfe000000: used rx head %d has no posted buffer", netRXBuffers+6)
	if msg, _ := got.(string); msg != want {
		t.Fatalf("OnIRQ with an unposted head: panic %v, want %q", got, want)
	}
}

// A received packet's buffer is reposted under the head it came back
// on: the table keeps netRXBuffers entries, all live, and the packet's
// entry still holds its buffer.
func TestNetRXRepostReusesSlot(t *testing.T) {
	var got []byte
	var want netBuf
	var table []netBuf
	if p := runNative(func(p *cpu.Port) {
		e, d, _, dev := newNetFixture(p)
		d.OnReceive = func(pkt []byte) { got = pkt }
		head, chain, ok, err := dev.PopAvail()
		if !ok || err != nil {
			panic(fmt.Sprintf("no RX buffer posted: %v", err))
		}
		want = d.rxBufs[head]
		must(e.Mem.Write(chain[0].GPA, []byte("ping")))
		must(dev.PushUsed(head, 4))
		d.OnIRQ()
		table = d.rxBufs
		if table[head] != want {
			panic(fmt.Sprintf("head %d holds %+v after the repost, want %+v", head, table[head], want))
		}
	}); p != nil {
		t.Fatal(p)
	}
	if string(got) != "ping" {
		t.Fatalf("received %q, want \"ping\"", got)
	}
	if len(table) != netRXBuffers {
		t.Fatalf("RX table has %d entries, want %d", len(table), netRXBuffers)
	}
	for h, b := range table {
		if !b.live || b.n != netBufSize {
			t.Fatalf("RX head %d: %+v, want a live %d B buffer", h, b, netBufSize)
		}
	}
}

// A zero-length packet still owns an arena entry, and its completion
// frees it and runs done.
func TestNetTXZeroLengthFreesBuffer(t *testing.T) {
	if p := runNative(func(p *cpu.Port) {
		e, d, dev, _ := newNetFixture(p)
		done := false
		d.Send(nil, func() { done = true })
		head, chain, ok, err := dev.PopAvail()
		if !ok || err != nil {
			panic(fmt.Sprintf("no TX packet posted: %v", err))
		}
		if chain[0].Len != 0 {
			panic(fmt.Sprintf("posted %d B, want 0", chain[0].Len))
		}
		must(dev.PushUsed(head, 0))
		d.OnIRQ()
		if !done {
			panic("done did not run")
		}
		if d.txBufs[head].live {
			panic(fmt.Sprintf("TX head %d still holds its buffer", head))
		}
		if free := e.freeList[0]; len(free) != 1 || free[0] != chain[0].GPA {
			panic(fmt.Sprintf("zero-size free list %#x, want [%#x]", free, chain[0].GPA))
		}
	}); p != nil {
		t.Fatal(p)
	}
}

// Send copies the packet into guest RAM before it returns, so the caller
// may overwrite its buffer while the device has yet to read it.
func TestNetSendCopiesPacket(t *testing.T) {
	if p := runNative(func(p *cpu.Port) {
		e, d, dev, _ := newNetFixture(p)
		pkt := []byte("first packet")
		d.Send(pkt, nil)
		copy(pkt, "overwritten!")
		_, chain, ok, err := dev.PopAvail()
		if !ok || err != nil {
			panic(fmt.Sprintf("no TX packet posted: %v", err))
		}
		got := make([]byte, chain[0].Len)
		must(e.Mem.Read(chain[0].GPA, got))
		if string(got) != "first packet" {
			panic(fmt.Sprintf("device read %q, want \"first packet\"", got))
		}
	}); p != nil {
		t.Fatal(p)
	}
}
