package virtio

import (
	"encoding/binary"
	"fmt"
)

// Block request types (virtio-blk header).
const (
	BlkTIn  uint32 = 0 // read
	BlkTOut uint32 = 1 // write
)

// Block status bytes.
const (
	BlkSOK     byte = 0
	BlkSIOErr  byte = 1
	BlkSUnsupp byte = 2 // request type the device does not implement
)

// BlkHeaderSize is the request header size in guest memory.
const BlkHeaderSize = 16

// BlkTransport is where block requests land: the ramdisk model for the
// host backend, or the guest hypervisor's own virtio-blk driver for the
// nested (vhost) backend.
//
// Data moves by guest address, as virtio DMA does: a write's n bytes
// are read from m at gpa, and a read's n bytes are written to m at gpa
// before done(true) runs. The transport touches the buffer only between
// Submit and done, and done(false) means the buffer's contents are
// unspecified.
type BlkTransport interface {
	Submit(write bool, sector uint64, m MemIO, gpa uint64, n uint32, done func(ok bool))
}

// blkPending is a request between kick and its used entry, indexed by
// its chain's head.
type blkPending struct {
	dataLen uint32
	stsGPA  uint64
	write   bool
	status  byte
}

// BlkBackend is the device side of a virtio-blk device (queue 0 carries
// requests).
type BlkBackend struct {
	DeviceCommon

	Transport     BlkTransport
	RaiseGuestIRQ func()
	NotifyHost    func()

	pending   []blkPending    // by chain head
	dones     []func(ok bool) // by chain head, made once per head
	completed []uint16        // heads awaiting their used entry
	hdr       [BlkHeaderSize]byte
	sts       [1]byte
}

// NewBlkBackend builds a block backend over the device window at base.
func NewBlkBackend(name string, base uint64, mem MemIO, tr BlkTransport) *BlkBackend {
	b := &BlkBackend{
		DeviceCommon: DeviceCommon{DevName: name, Base: base, Mem: mem},
		Transport:    tr,
	}
	b.OnKick = b.kick
	return b
}

// kick drains the request queue. Each chain is validated before any
// data moves: a driver-readable header, a data buffer whose direction
// matches the request, and a device-writable status byte. A malformed
// chain is a driver bug and panics naming the device. A request type
// the device does not implement completes with BlkSUnsupp and touches
// neither the transport nor the data buffer.
func (b *BlkBackend) kick(qi int) {
	q := b.Queue(0)
	for {
		head, bufs, ok, err := q.PopAvail()
		if err != nil {
			panic(fmt.Sprintf("virtio-blk %s: %v", b.DevName, err))
		}
		if !ok {
			return
		}
		if len(bufs) < 2 {
			panic(fmt.Sprintf("virtio-blk %s: malformed chain (%d bufs)", b.DevName, len(bufs)))
		}
		hdr, status := bufs[0], bufs[len(bufs)-1]
		if hdr.DeviceWrite || hdr.Len < BlkHeaderSize {
			panic(fmt.Sprintf("virtio-blk %s: header must be a driver-readable buffer of at least %d bytes", b.DevName, BlkHeaderSize))
		}
		if !status.DeviceWrite || status.Len < 1 {
			panic(fmt.Sprintf("virtio-blk %s: status must be a device-writable byte", b.DevName))
		}
		if err := b.Mem.Read(hdr.GPA, b.hdr[:]); err != nil {
			panic(fmt.Sprintf("virtio-blk %s: header: %v", b.DevName, err))
		}
		typ := binary.LittleEndian.Uint32(b.hdr[0:4])
		sector := binary.LittleEndian.Uint64(b.hdr[8:16])
		p := b.slot(head)
		*p = blkPending{stsGPA: status.GPA, write: typ == BlkTOut}
		if typ != BlkTIn && typ != BlkTOut {
			p.status = BlkSUnsupp
			b.complete(head, true)
			continue
		}
		if len(bufs) != 3 {
			panic(fmt.Sprintf("virtio-blk %s: malformed chain (%d bufs)", b.DevName, len(bufs)))
		}
		data := bufs[1]
		if data.DeviceWrite == p.write {
			panic(fmt.Sprintf("virtio-blk %s: data buffer direction does not match request type %d", b.DevName, typ))
		}
		p.dataLen = data.Len
		if p.write {
			if err := b.Mem.Probe(data.GPA, data.Len, false); err != nil {
				panic(fmt.Sprintf("virtio-blk %s: data read: %v", b.DevName, err))
			}
		} else {
			if err := b.Mem.Probe(data.GPA, data.Len, true); err != nil {
				panic(fmt.Sprintf("virtio-blk %s: data write: %v", b.DevName, err))
			}
		}
		b.Transport.Submit(p.write, sector, b.Mem, data.GPA, data.Len, b.dones[head])
	}
}

// slot returns head's pending entry, growing the per-head tables to
// reach it. Heads recycle through the driver's free list, so the tables
// stay as short as the deepest queue the driver has used.
func (b *BlkBackend) slot(head uint16) *blkPending {
	for len(b.pending) <= int(head) {
		h := uint16(len(b.pending))
		b.pending = append(b.pending, blkPending{})
		b.dones = append(b.dones, func(ok bool) { b.complete(h, ok) })
	}
	return &b.pending[head]
}

// complete is a request's done callback (event context), and how kick
// retires an unsupported type: queue the used entry and ask for
// kernel-context processing. A failure overrides the status.
func (b *BlkBackend) complete(head uint16, ok bool) {
	if !ok {
		b.pending[head].status = BlkSIOErr
	}
	b.completed = append(b.completed, head)
	if b.NotifyHost != nil {
		b.notify(b.NotifyHost)
	}
}

// OnIRQ implements hv.Device: retire completed requests in kernel
// context — write status, push used, interrupt the guest. A read's data
// is already in the guest's buffer: the transport wrote it before it
// completed the request.
func (b *BlkBackend) OnIRQ() {
	q := b.Queue(0)
	raised := false
	for _, head := range b.completed {
		p := &b.pending[head]
		total := uint32(1)
		if !p.write && p.status == BlkSOK {
			total += p.dataLen
		}
		b.sts[0] = p.status
		if err := b.Mem.Write(p.stsGPA, b.sts[:]); err != nil {
			panic(fmt.Sprintf("virtio-blk %s: status: %v", b.DevName, err))
		}
		if err := q.PushUsed(head, total); err != nil {
			panic(fmt.Sprintf("virtio-blk %s: %v", b.DevName, err))
		}
		raised = true
	}
	b.completed = b.completed[:0]
	if raised && b.RaiseGuestIRQ != nil {
		b.ObsComplete(0)
		b.RaiseGuestIRQ()
	}
}

// EncodeBlkHeader builds a request header (driver-side helper).
func EncodeBlkHeader(write bool, sector uint64) [BlkHeaderSize]byte {
	var hdr [BlkHeaderSize]byte
	typ := BlkTIn
	if write {
		typ = BlkTOut
	}
	binary.LittleEndian.PutUint32(hdr[0:4], typ)
	binary.LittleEndian.PutUint64(hdr[8:16], sector)
	return hdr
}
