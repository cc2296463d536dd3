// Package virtio implements the paravirtual I/O transport the paper's
// evaluation runs on (Table 4: virtio-net-pci + vhost, virtio disk):
// split virtqueues laid out in guest physical memory, a driver side
// (guest), and device backends (hypervisor side) for network and block.
// Queue kicks are MMIO writes that exit with EPT_MISCONFIG — the dominant
// exit reason in the paper's I/O profiles — and completions are delivered
// by interrupt injection.
package virtio

import (
	"errors"
	"fmt"
)

// MemIO is byte-addressable guest-physical memory access; both the guest
// driver (its own RAM) and the device backend (an EPT-translated view)
// satisfy it with *ept.View.
type MemIO interface {
	Read(gpa uint64, p []byte) error
	Write(gpa uint64, p []byte) error
	// Probe reports the error an n-byte read (or, with write, write) at
	// gpa would fail with, moving no data: how a device rejects a DMA
	// target before it accepts the request.
	Probe(gpa uint64, n uint32, write bool) error
	ReadU16(gpa uint64) (uint16, error)
	WriteU16(gpa uint64, v uint16) error
	ReadU32(gpa uint64) (uint32, error)
	WriteU32(gpa uint64, v uint32) error
	ReadU64(gpa uint64) (uint64, error)
	WriteU64(gpa uint64, v uint64) error
}

// Descriptor flags.
const (
	DescFNext  uint16 = 1 // chained to .Next
	DescFWrite uint16 = 2 // device writes this buffer
)

// Desc is one descriptor-table entry (16 bytes in guest memory).
type Desc struct {
	Addr  uint64
	Len   uint32
	Flags uint16
	Next  uint16
}

// Layout describes where a virtqueue lives in guest-physical memory.
type Layout struct {
	Size  uint16 // number of descriptors (power of two)
	Desc  uint64 // descriptor table base
	Avail uint64 // available ring base
	Used  uint64 // used ring base
}

// Bytes reports the memory footprint of each area.
func (l Layout) Bytes() (desc, avail, used uint64) {
	n := uint64(l.Size)
	return 16 * n, 4 + 2*n, 4 + 8*n
}

// NewLayout packs a queue of the given size starting at base.
func NewLayout(base uint64, size uint16) Layout {
	l := Layout{Size: size, Desc: base}
	d, a, _ := l.Bytes()
	l.Avail = align(l.Desc+d, 2)
	l.Used = align(l.Avail+a, 4)
	return l
}

func align(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// End reports the first byte after the queue's memory.
func (l Layout) End() uint64 {
	_, _, u := l.Bytes()
	return l.Used + u
}

// Queue is one side's handle on a virtqueue. Driver and device each
// construct their own Queue over the same Layout with their own MemIO;
// all shared state (rings, descriptors) lives in guest memory, exactly as
// on real hardware.
type Queue struct {
	L   Layout
	Mem MemIO

	// driver records which side this handle plays (set from NewQueue's
	// initDriver): the shadow-lag invariants are only decidable for the
	// role that actually maintains the shadow.
	driver bool

	// Driver-side state (private to the driver in real implementations).
	freeHead  uint16
	numFree   uint16
	availIdx  uint16 // shadow of the published avail index
	usedEvent uint16

	// Device-side state.
	lastAvail uint16 // next avail entry the device will consume
	usedIdx   uint64 // shadow of the published used index (monotonic)

	// Driver-side consumption of the used ring.
	lastUsed uint16
}

// ErrQueueFull is returned when no free descriptors remain.
var ErrQueueFull = errors.New("virtio: queue full")

// NewQueue wraps a layout. initDriver also initializes the free list and
// zeroes the ring indices in memory (the driver owns queue setup).
func NewQueue(l Layout, mem MemIO, initDriver bool) (*Queue, error) {
	if l.Size == 0 || l.Size&(l.Size-1) != 0 {
		return nil, fmt.Errorf("virtio: queue size %d not a power of two", l.Size)
	}
	q := &Queue{L: l, Mem: mem, numFree: l.Size, driver: initDriver}
	if initDriver {
		for i := uint16(0); i < l.Size; i++ {
			next := uint16(0)
			if i+1 < l.Size {
				next = i + 1
			}
			if err := q.writeDesc(i, Desc{Next: next}); err != nil {
				return nil, err
			}
		}
		if err := mem.WriteU16(l.Avail+2, 0); err != nil {
			return nil, err
		}
		if err := mem.WriteU16(l.Used+2, 0); err != nil {
			return nil, err
		}
	}
	return q, nil
}

func (q *Queue) descAddr(i uint16) uint64 { return q.L.Desc + uint64(i)*16 }

func (q *Queue) writeDesc(i uint16, d Desc) error {
	a := q.descAddr(i)
	if err := q.Mem.WriteU64(a, d.Addr); err != nil {
		return err
	}
	if err := q.Mem.WriteU32(a+8, d.Len); err != nil {
		return err
	}
	if err := q.Mem.WriteU16(a+12, d.Flags); err != nil {
		return err
	}
	return q.Mem.WriteU16(a+14, d.Next)
}

func (q *Queue) readDesc(i uint16) (Desc, error) {
	a := q.descAddr(i)
	var d Desc
	var err error
	if d.Addr, err = q.Mem.ReadU64(a); err != nil {
		return d, err
	}
	if d.Len, err = q.Mem.ReadU32(a + 8); err != nil {
		return d, err
	}
	if d.Flags, err = q.Mem.ReadU16(a + 12); err != nil {
		return d, err
	}
	d.Next, err = q.Mem.ReadU16(a + 14)
	return d, err
}

// Buf is one element of a chain the driver posts.
type Buf struct {
	GPA         uint64
	Len         uint32
	DeviceWrite bool
}

// Post allocates descriptors for the chain, links them, and publishes the
// head on the available ring (driver side). It returns the head index.
func (q *Queue) Post(chain []Buf) (uint16, error) {
	if len(chain) == 0 {
		return 0, errors.New("virtio: empty chain")
	}
	if int(q.numFree) < len(chain) {
		return 0, ErrQueueFull
	}
	head := q.freeHead
	idx := head
	for i, b := range chain {
		d, err := q.readDesc(idx)
		if err != nil {
			return 0, err
		}
		next := d.Next
		// Next always carries the successor: for chained elements it is the
		// chain link, and for the last element it preserves the free-list
		// link (the device ignores Next without DescFNext).
		nd := Desc{Addr: b.GPA, Len: b.Len, Next: next}
		if b.DeviceWrite {
			nd.Flags |= DescFWrite
		}
		if i+1 < len(chain) {
			nd.Flags |= DescFNext
		}
		if err := q.writeDesc(idx, nd); err != nil {
			return 0, err
		}
		idx = next
	}
	q.freeHead = idx
	q.numFree -= uint16(len(chain))

	// Publish on the available ring.
	slot := q.L.Avail + 4 + uint64(q.availIdx%q.L.Size)*2
	if err := q.Mem.WriteU16(slot, head); err != nil {
		return 0, err
	}
	q.availIdx++
	if err := q.Mem.WriteU16(q.L.Avail+2, q.availIdx); err != nil {
		return 0, err
	}
	return head, nil
}

// PopAvail consumes the next available chain (device side), returning the
// head and the resolved buffers.
func (q *Queue) PopAvail() (uint16, []Buf, bool, error) {
	published, err := q.Mem.ReadU16(q.L.Avail + 2)
	if err != nil {
		return 0, nil, false, err
	}
	if q.lastAvail == published {
		return 0, nil, false, nil
	}
	slot := q.L.Avail + 4 + uint64(q.lastAvail%q.L.Size)*2
	head, err := q.Mem.ReadU16(slot)
	if err != nil {
		return 0, nil, false, err
	}
	q.lastAvail++
	var bufs []Buf
	idx := head
	for hops := 0; ; hops++ {
		if hops > int(q.L.Size) {
			return 0, nil, false, fmt.Errorf("virtio: descriptor chain loop at head %d", head)
		}
		if idx >= q.L.Size {
			return 0, nil, false, fmt.Errorf("virtio: descriptor %d outside the %d-entry table (head %d)", idx, q.L.Size, head)
		}
		d, err := q.readDesc(idx)
		if err != nil {
			return 0, nil, false, err
		}
		bufs = append(bufs, Buf{GPA: d.Addr, Len: d.Len, DeviceWrite: d.Flags&DescFWrite != 0})
		if d.Flags&DescFNext == 0 {
			break
		}
		idx = d.Next
	}
	return head, bufs, true, nil
}

// PushUsed publishes a completed chain (device side).
func (q *Queue) PushUsed(head uint16, totalLen uint32) error {
	slot := q.L.Used + 4 + (q.usedIdx%uint64(q.L.Size))*8
	if err := q.Mem.WriteU32(slot, uint32(head)); err != nil {
		return err
	}
	if err := q.Mem.WriteU32(slot+4, totalLen); err != nil {
		return err
	}
	q.usedIdx++
	return q.Mem.WriteU16(q.L.Used+2, uint16(q.usedIdx))
}

// PopUsed consumes one used-ring entry (driver side), returning the chain
// head and written length, and recycles the chain's descriptors.
func (q *Queue) PopUsed() (uint16, uint32, bool, error) {
	published, err := q.Mem.ReadU16(q.L.Used + 2)
	if err != nil {
		return 0, 0, false, err
	}
	if q.lastUsed == published {
		return 0, 0, false, nil
	}
	slot := q.L.Used + 4 + uint64(q.lastUsed%q.L.Size)*8
	id32, err := q.Mem.ReadU32(slot)
	if err != nil {
		return 0, 0, false, err
	}
	length, err := q.Mem.ReadU32(slot + 4)
	if err != nil {
		return 0, 0, false, err
	}
	q.lastUsed++
	head := uint16(id32)
	// Recycle the chain onto the free list.
	n := uint16(1)
	idx := head
	for {
		d, err := q.readDesc(idx)
		if err != nil {
			return 0, 0, false, err
		}
		if d.Flags&DescFNext == 0 {
			d.Next = q.freeHead
			d.Flags = 0
			if err := q.writeDesc(idx, d); err != nil {
				return 0, 0, false, err
			}
			break
		}
		idx = d.Next
		n++
	}
	q.freeHead = head
	q.numFree += n
	return head, length, true, nil
}

// CheckInvariants verifies the DESIGN §6 virtqueue invariants that are
// decidable from one side's handle plus the shared rings in guest memory:
// the published indices advance within the queue bound (in-flight chains
// never exceed Size), and this handle's private shadows never run ahead
// of what the other side published. It is cheap enough to run at every
// op boundary of the differential harness.
func (q *Queue) CheckInvariants() error {
	pa, err := q.Mem.ReadU16(q.L.Avail + 2)
	if err != nil {
		return fmt.Errorf("virtio: avail index: %w", err)
	}
	pu, err := q.Mem.ReadU16(q.L.Used + 2)
	if err != nil {
		return fmt.Errorf("virtio: used index: %w", err)
	}
	if inflight := pa - pu; inflight > q.L.Size {
		return fmt.Errorf("virtio: %d chains in flight exceeds queue size %d (avail=%d used=%d)",
			inflight, q.L.Size, pa, pu)
	}
	if q.numFree > q.L.Size {
		return fmt.Errorf("virtio: free count %d exceeds queue size %d", q.numFree, q.L.Size)
	}
	// Device side: consumed available entries must have been published.
	if !q.driver {
		if lag := pa - q.lastAvail; lag > q.L.Size {
			return fmt.Errorf("virtio: device consumed past the published avail index (last=%d published=%d)",
				q.lastAvail, pa)
		}
	}
	// Driver side: reaped used entries must have been published.
	if q.driver {
		if lag := pu - q.lastUsed; lag > q.L.Size {
			return fmt.Errorf("virtio: driver reaped past the published used index (last=%d published=%d)",
				q.lastUsed, pu)
		}
	}
	return nil
}
