// Package virtio implements the paravirtual I/O transport the paper's
// evaluation runs on (Table 4: virtio-net-pci + vhost, virtio disk):
// split virtqueues laid out in guest physical memory, a driver side
// (guest), and device backends (hypervisor side) for network and block.
// Queue kicks are MMIO writes that exit with EPT_MISCONFIG — the dominant
// exit reason in the paper's I/O profiles — and completions are delivered
// by interrupt injection.
package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MemIO is byte-addressable guest-physical memory access; both the guest
// driver (its own RAM) and the device backend (an EPT-translated view)
// satisfy it with *ept.View. It moves bytes only: whoever reads a
// structure out of guest memory decodes it (little-endian, as virtio
// specifies) with encoding/binary.
type MemIO interface {
	Read(gpa uint64, p []byte) error
	Write(gpa uint64, p []byte) error
	// Probe reports the error an n-byte read (or, with write, write) at
	// gpa would fail with, moving no data: how a device rejects a DMA
	// target before it accepts the request.
	Probe(gpa uint64, n uint32, write bool) error
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
	freeHead uint16
	numFree  uint16
	availIdx uint16 // shadow of the published avail index

	// Device-side state.
	lastAvail uint16 // next avail entry the device will consume
	usedIdx   uint64 // shadow of the published used index (monotonic)

	// Driver-side consumption of the used ring.
	lastUsed uint16

	// scratch carries every ring access: a descriptor is one 16-byte
	// access, a used element one 8-byte access, a ring index one 2-byte
	// access. It is a field because a stack array handed to Mem escapes.
	scratch [16]byte
	// chain is PopAvail's result, reused by the next PopAvail.
	chain []Buf
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
			if err := q.writeDesc(i, Desc{Next: (i + 1) % l.Size}); err != nil {
				return nil, err
			}
		}
		if err := q.writeU16(l.Avail+2, 0); err != nil {
			return nil, err
		}
		if err := q.writeU16(l.Used+2, 0); err != nil {
			return nil, err
		}
	}
	return q, nil
}

func (q *Queue) descAddr(i uint16) uint64 { return q.L.Desc + uint64(i)*16 }

func (q *Queue) readU16(gpa uint64) (uint16, error) {
	b := q.scratch[:2]
	if err := q.Mem.Read(gpa, b); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (q *Queue) writeU16(gpa uint64, v uint16) error {
	b := q.scratch[:2]
	binary.LittleEndian.PutUint16(b, v)
	return q.Mem.Write(gpa, b)
}

func (q *Queue) writeDesc(i uint16, d Desc) error {
	b := q.scratch[:]
	binary.LittleEndian.PutUint64(b[0:], d.Addr)
	binary.LittleEndian.PutUint32(b[8:], d.Len)
	binary.LittleEndian.PutUint16(b[12:], d.Flags)
	binary.LittleEndian.PutUint16(b[14:], d.Next)
	return q.Mem.Write(q.descAddr(i), b)
}

func (q *Queue) readDesc(i uint16) (Desc, error) {
	b := q.scratch[:]
	if err := q.Mem.Read(q.descAddr(i), b); err != nil {
		return Desc{}, err
	}
	return Desc{
		Addr:  binary.LittleEndian.Uint64(b[0:]),
		Len:   binary.LittleEndian.Uint32(b[8:]),
		Flags: binary.LittleEndian.Uint16(b[12:]),
		Next:  binary.LittleEndian.Uint16(b[14:]),
	}, nil
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
	if err := q.writeU16(slot, head); err != nil {
		return 0, err
	}
	q.availIdx++
	if err := q.writeU16(q.L.Avail+2, q.availIdx); err != nil {
		return 0, err
	}
	return head, nil
}

// PopAvail consumes the next available chain (device side), returning the
// head and the resolved buffers. The queue owns the returned slice: it
// stays valid until this queue's next PopAvail, so a caller finishes with
// it, or copies it, before popping again.
func (q *Queue) PopAvail() (uint16, []Buf, bool, error) {
	published, err := q.readU16(q.L.Avail + 2)
	if err != nil {
		return 0, nil, false, err
	}
	if q.lastAvail == published {
		return 0, nil, false, nil
	}
	slot := q.L.Avail + 4 + uint64(q.lastAvail%q.L.Size)*2
	head, err := q.readU16(slot)
	if err != nil {
		return 0, nil, false, err
	}
	q.lastAvail++
	bufs := q.chain[:0]
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
	q.chain = bufs
	return head, bufs, true, nil
}

// PushUsed publishes a completed chain (device side).
func (q *Queue) PushUsed(head uint16, totalLen uint32) error {
	slot := q.L.Used + 4 + (q.usedIdx%uint64(q.L.Size))*8
	b := q.scratch[:8]
	binary.LittleEndian.PutUint32(b[0:], uint32(head))
	binary.LittleEndian.PutUint32(b[4:], totalLen)
	if err := q.Mem.Write(slot, b); err != nil {
		return err
	}
	q.usedIdx++
	return q.writeU16(q.L.Used+2, uint16(q.usedIdx))
}

// PopUsed consumes one used-ring entry (driver side), returning the chain
// head and written length, and recycles the chain's descriptors. A used
// id outside the descriptor table, or a chain longer than the descriptors
// in flight (a loop among them), is an error that leaves the queue as it
// was.
func (q *Queue) PopUsed() (uint16, uint32, bool, error) {
	published, err := q.readU16(q.L.Used + 2)
	if err != nil {
		return 0, 0, false, err
	}
	if q.lastUsed == published {
		return 0, 0, false, nil
	}
	slot := q.L.Used + 4 + uint64(q.lastUsed%q.L.Size)*8
	b := q.scratch[:8]
	if err := q.Mem.Read(slot, b); err != nil {
		return 0, 0, false, err
	}
	id, length := binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint32(b[4:])
	if id >= uint32(q.L.Size) {
		return 0, 0, false, fmt.Errorf("virtio: used id %d outside the %d-entry table", id, q.L.Size)
	}
	head := uint16(id)
	// Walk to the chain's tail within the descriptors in flight, then
	// recycle the chain onto the free list: the tail links to the old head.
	inflight := q.L.Size - q.numFree
	idx := head
	for n := uint16(1); ; n++ {
		if n > inflight {
			return 0, 0, false, fmt.Errorf("virtio: used id %d: chain runs past the %d descriptors in flight", id, inflight)
		}
		d, err := q.readDesc(idx)
		if err != nil {
			return 0, 0, false, err
		}
		if d.Flags&DescFNext == 0 {
			d.Next, d.Flags = q.freeHead, 0
			if err := q.writeDesc(idx, d); err != nil {
				return 0, 0, false, err
			}
			q.lastUsed++
			q.freeHead = head
			q.numFree += n
			return head, length, true, nil
		}
		if d.Next >= q.L.Size {
			return 0, 0, false, fmt.Errorf("virtio: used id %d: descriptor %d outside the %d-entry table", id, d.Next, q.L.Size)
		}
		idx = d.Next
	}
}

// CheckInvariants verifies the DESIGN §6 virtqueue invariants that are
// decidable from one side's handle plus the shared rings in guest memory:
// the published indices advance within the queue bound (in-flight chains
// never exceed Size), and this handle's private shadows never run ahead
// of what the other side published. It is cheap enough to run at every
// op boundary of the differential harness.
func (q *Queue) CheckInvariants() error {
	pa, err := q.readU16(q.L.Avail + 2)
	if err != nil {
		return fmt.Errorf("virtio: avail index: %w", err)
	}
	pu, err := q.readU16(q.L.Used + 2)
	if err != nil {
		return fmt.Errorf("virtio: used index: %w", err)
	}
	if inflight := pa - pu; inflight > q.L.Size {
		return fmt.Errorf("virtio: %d chains in flight exceeds queue size %d (avail=%d used=%d)",
			inflight, q.L.Size, pa, pu)
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
