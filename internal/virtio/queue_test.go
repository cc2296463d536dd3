package virtio

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"svtsim/internal/allocs"
	"svtsim/internal/ept"
	"svtsim/internal/mem"
	"svtsim/internal/qcheck"
	"svtsim/internal/race"
)

func testMem(t *testing.T) MemIO {
	t.Helper()
	host := mem.New(1 << 22)
	tbl := ept.New("t")
	if err := tbl.Map(0, 0, 1<<22, ept.PermRW); err != nil {
		t.Fatal(err)
	}
	return ept.NewView(host, tbl)
}

func TestLayoutNonOverlapping(t *testing.T) {
	l := NewLayout(0x1000, 64)
	d, a, u := l.Bytes()
	if l.Desc+d > l.Avail {
		t.Fatal("desc overlaps avail")
	}
	if l.Avail+a > l.Used {
		t.Fatal("avail overlaps used")
	}
	if l.End() != l.Used+u {
		t.Fatal("End wrong")
	}
}

func TestQueueSizeMustBePowerOfTwo(t *testing.T) {
	m := testMem(t)
	if _, err := NewQueue(NewLayout(0, 3), m, true); err == nil {
		t.Fatal("size 3 must be rejected")
	}
	if _, err := NewQueue(NewLayout(0, 0), m, true); err == nil {
		t.Fatal("size 0 must be rejected")
	}
}

func TestPostPopRoundTrip(t *testing.T) {
	m := testMem(t)
	l := NewLayout(0x1000, 8)
	driver, err := NewQueue(l, m, true)
	if err != nil {
		t.Fatal(err)
	}
	device, err := NewQueue(l, m, false)
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("nested virtualization")
	if err := m.Write(0x8000, payload); err != nil {
		t.Fatal(err)
	}
	head, err := driver.Post([]Buf{
		{GPA: 0x8000, Len: uint32(len(payload))},
		{GPA: 0x9000, Len: 128, DeviceWrite: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(driver.numFree) != 6 {
		t.Fatalf("free = %d, want 6", int(driver.numFree))
	}

	gotHead, bufs, ok, err := device.PopAvail()
	if err != nil || !ok {
		t.Fatalf("PopAvail: %v %v", ok, err)
	}
	if gotHead != head {
		t.Fatalf("head = %d, want %d", gotHead, head)
	}
	if len(bufs) != 2 || bufs[0].DeviceWrite || !bufs[1].DeviceWrite {
		t.Fatalf("bufs = %+v", bufs)
	}
	got := make([]byte, bufs[0].Len)
	if err := m.Read(bufs[0].GPA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}

	// Device completes; driver reclaims.
	if err := device.PushUsed(gotHead, 128); err != nil {
		t.Fatal(err)
	}
	uHead, uLen, ok, err := driver.PopUsed()
	if err != nil || !ok || uHead != head || uLen != 128 {
		t.Fatalf("PopUsed = %d,%d,%v,%v", uHead, uLen, ok, err)
	}
	if int(driver.numFree) != 8 {
		t.Fatalf("free after reclaim = %d, want 8", int(driver.numFree))
	}
}

func TestPopAvailEmpty(t *testing.T) {
	m := testMem(t)
	l := NewLayout(0, 4)
	drv, _ := NewQueue(l, m, true)
	dev, _ := NewQueue(l, m, false)
	_ = drv
	if _, _, ok, err := dev.PopAvail(); ok || err != nil {
		t.Fatal("empty queue must not pop")
	}
}

func TestQueueFull(t *testing.T) {
	m := testMem(t)
	l := NewLayout(0, 4)
	drv, _ := NewQueue(l, m, true)
	for i := 0; i < 4; i++ {
		if _, err := drv.Post([]Buf{{GPA: 0x1000, Len: 8}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := drv.Post([]Buf{{GPA: 0x1000, Len: 8}}); err != ErrQueueFull {
		t.Fatalf("expected full, got %v", err)
	}
	if _, err := drv.Post(nil); err == nil {
		t.Fatal("empty chain must fail")
	}
}

// Property: any sequence of posts and completions preserves FIFO delivery
// of heads through the avail ring and never loses or duplicates a
// descriptor chain.
func TestQueueChainConservationProperty(t *testing.T) {
	prop := func(chainLens []uint8) bool {
		m := mem.New(1 << 22)
		tbl := ept.New("t")
		if tbl.Map(0, 0, 1<<22, ept.PermRW) != nil {
			return false
		}
		view := ept.NewView(m, tbl)
		l := NewLayout(0x1000, 32)
		drv, err := NewQueue(l, view, true)
		if err != nil {
			return false
		}
		dev, err := NewQueue(l, view, false)
		if err != nil {
			return false
		}
		var posted []uint16
		for _, cl := range chainLens {
			n := int(cl)%3 + 1
			chain := make([]Buf, n)
			for i := range chain {
				chain[i] = Buf{GPA: 0x8000 + uint64(i)*256, Len: 64}
			}
			head, err := drv.Post(chain)
			if err == ErrQueueFull {
				// Drain everything and retry once.
				for {
					h, bufs, ok, err := dev.PopAvail()
					if err != nil {
						return false
					}
					if !ok {
						break
					}
					if len(bufs) == 0 {
						return false
					}
					if dev.PushUsed(h, 0) != nil {
						return false
					}
				}
				for {
					gh, _, ok, err := drv.PopUsed()
					if err != nil {
						return false
					}
					if !ok {
						break
					}
					if len(posted) == 0 || posted[0] != gh {
						return false
					}
					posted = posted[1:]
				}
				head, err = drv.Post(chain)
				if err != nil {
					return false
				}
			} else if err != nil {
				return false
			}
			posted = append(posted, head)
		}
		// Final drain: device sees every remaining chain in FIFO order.
		i := 0
		for {
			h, _, ok, err := dev.PopAvail()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if i >= len(posted) || posted[i] != h {
				return false
			}
			i++
		}
		return i == len(posted)
	}
	if err := quick.Check(prop, qcheck.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestChainLoopDetected(t *testing.T) {
	m := testMem(t)
	l := NewLayout(0, 4)
	drv, _ := NewQueue(l, m, true)
	dev, _ := NewQueue(l, m, false)
	if _, err := drv.Post([]Buf{{GPA: 0x100, Len: 8}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the descriptor to point at itself with NEXT set (a malicious
	// or buggy guest); the device must detect the loop, not hang.
	if err := m.Write(l.Desc+12, []byte{byte(DescFNext), 0, 0, 0}); err != nil { // flags, next=0
		t.Fatal(err)
	}
	if _, _, _, err := dev.PopAvail(); err == nil {
		t.Fatal("descriptor loop must be detected")
	}
}

// A head or chain link outside the descriptor table is an error, not a
// read past the table: devices index per-request state by head.
func TestDescriptorIndexOutOfTable(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		at   func(l Layout) uint64
		val  uint16
	}{
		{"head", func(l Layout) uint64 { return l.Avail + 4 }, 4},
		{"next", func(l Layout) uint64 { return l.Desc + 14 }, 9},
	} {
		m := testMem(t)
		l := NewLayout(0, 4)
		drv, _ := NewQueue(l, m, true)
		dev, _ := NewQueue(l, m, false)
		if _, err := drv.Post([]Buf{{GPA: 0x100, Len: 8}, {GPA: 0x200, Len: 8}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(corrupt.at(l), binary.LittleEndian.AppendUint16(nil, corrupt.val)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := dev.PopAvail(); err == nil {
			t.Errorf("%s %d of a 4-entry table: PopAvail accepted it", corrupt.name, corrupt.val)
		}
	}
}

// A used entry is the device's word about which chain completed; the
// driver checks it before recycling anything. A rejected entry leaves the
// driver's ring position and free list as they were.
func TestPopUsedRejectsCorruptEntries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		id      uint32
		selfRef bool // the chain's descriptor links to itself with NEXT set
	}{
		{"id past the table", 7, false},
		{"id past 16 bits", 1 << 16, false},
		{"descriptor loop", 0, true},
	} {
		m := testMem(t)
		l := NewLayout(0, 4)
		drv, _ := NewQueue(l, m, true)
		dev, _ := NewQueue(l, m, false)
		head, err := drv.Post([]Buf{{GPA: 0x100, Len: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := dev.PopAvail(); err != nil {
			t.Fatal(err)
		}
		if err := dev.PushUsed(head, 8); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(l.Used+4, binary.LittleEndian.AppendUint32(nil, tc.id)); err != nil {
			t.Fatal(err)
		}
		if tc.selfRef {
			d := []byte{byte(DescFNext), 0, byte(tc.id), 0} // flags, next
			if err := m.Write(l.Desc+16*uint64(tc.id)+12, d); err != nil {
				t.Fatal(err)
			}
		}
		lastUsed, freeHead, numFree := drv.lastUsed, drv.freeHead, drv.numFree
		done := make(chan error, 1)
		go func() {
			_, _, _, err := drv.PopUsed()
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: PopUsed did not return", tc.name)
		}
		if err == nil {
			t.Errorf("%s: PopUsed accepted used id %d", tc.name, tc.id)
		}
		if drv.lastUsed != lastUsed || drv.freeHead != freeHead || drv.numFree != numFree {
			t.Errorf("%s: rejected entry moved the driver: last used %d→%d, free head %d→%d, free %d→%d",
				tc.name, lastUsed, drv.lastUsed, freeHead, drv.freeHead, numFree, drv.numFree)
		}
	}
}

// A round trip moves each descriptor, used element and ring index in one
// access through the queue's own scratch, and PopAvail reuses its chain
// slice, so the steady state allocates nothing.
func TestVirtqueueRoundTripAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	m := testMem(t)
	l := NewLayout(0x1000, 8)
	drv, _ := NewQueue(l, m, true)
	dev, _ := NewQueue(l, m, false)
	chain := []Buf{{GPA: 0x8000, Len: 16}, {GPA: 0x8100, Len: 64}, {GPA: 0x8200, Len: 1, DeviceWrite: true}}
	got := allocs.PerRun(100, func() {
		if _, err := drv.Post(chain); err != nil {
			t.Fatal(err)
		}
		head, _, ok, err := dev.PopAvail()
		if err != nil || !ok {
			t.Fatalf("PopAvail: %v %v", ok, err)
		}
		if err := dev.PushUsed(head, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := drv.PopUsed(); err != nil || !ok {
			t.Fatalf("PopUsed: %v %v", ok, err)
		}
	})
	if got != 0 {
		t.Fatalf("a 3-buffer round trip allocates %.2f times, want 0", got)
	}
}
