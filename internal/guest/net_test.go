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
	"svtsim/internal/mem"
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
	c := cpu.New(sim.New(), &m, 1, mem.New(1<<20))
	g := cpu.NewNativeGuest("l2", c, 0, body)
	v := vmcs.New("vmcs")
	defer func() { panicked = recover() }()
	for {
		if e := c.RunGuest(0, v, g, nil); e.Reason == isa.ExitVMCall && e.Qualification == cpu.QualGuestDone {
			return nil
		}
	}
}

// A received packet's RX buffer goes back on the ring; when that repost
// fails, the driver panics naming itself instead of silently losing one
// buffer of the device's RX capacity.
func TestNetRXRepostFailurePanics(t *testing.T) {
	got := runNative(func(p *cpu.Port) {
		e := testEnv()
		e.Port = p
		d, err := NewNetDriver(e, 0x24, 0xFE000000, 0x200000)
		if err != nil {
			panic(err)
		}
		// The device fills the first posted RX buffer.
		dev, err := virtio.NewQueue(d.RX.L, e.Mem, false)
		if err != nil {
			panic(err)
		}
		head, _, ok, err := dev.PopAvail()
		if !ok || err != nil {
			panic(fmt.Sprintf("no RX buffer posted: %v", err))
		}
		if err := dev.PushUsed(head, 64); err != nil {
			panic(err)
		}
		d.RX.Mem = failRXPosts{e.Mem, d.RX.L}
		d.OnIRQ()
	})
	if msg, _ := got.(string); !strings.HasPrefix(msg, "guest net: rx repost: ") {
		t.Fatalf("OnIRQ with a failing repost: panic %v, want \"guest net: rx repost: ...\"", got)
	}
}
