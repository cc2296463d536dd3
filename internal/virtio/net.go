package virtio

import (
	"fmt"

	"svtsim/internal/netsim"
)

// Queue indices of a net device.
const (
	NetQTX = 0
	NetQRX = 1
)

// NetBackend is the device side of a virtio-net device: a TX and an RX
// queue living in the guest's memory, configured by the driver through
// the trapped MMIO registers.
type NetBackend struct {
	DeviceCommon

	// Transport is where the backend's packets go: the NIC model for the
	// host hypervisor's backend, or the guest hypervisor's own virtio-net
	// driver for its vhost backend.
	Transport netsim.Conduit
	// RaiseGuestIRQ injects the device's completion vector into the
	// owning guest (runs in the owning kernel's context).
	RaiseGuestIRQ func()
	// NotifyHost schedules completion processing (OnIRQ) in the owning
	// kernel by raising its host-side vector; safe from event context.
	NotifyHost func()

	txDone    []uint16
	txDoneFns []func() // by chain head, made once per head
	// rxArrived holds copies of the packets the transport lent, until
	// OnIRQ writes them into posted buffers; drainTX reads each packet
	// out of guest memory into a buffer from bufs too.
	rxArrived [][]byte
	bufs      netsim.Buffers

	// TxCoalesce batches TX-completion interrupts, as real NICs do: the
	// host is notified once this many completions are pending (any other
	// interrupt also flushes them). Zero means immediate.
	TxCoalesce int

	RxPackets uint64
}

// NewNetBackend wires a backend over the device window at base.
func NewNetBackend(name string, base uint64, mem MemIO, tr netsim.Conduit) *NetBackend {
	b := &NetBackend{
		DeviceCommon: DeviceCommon{DevName: name, Base: base, Mem: mem},
		Transport:    tr,
	}
	b.OnKick = b.kick
	if tr != nil {
		tr.SetReceiver(b.receive)
	}
	return b
}

func (b *NetBackend) coalesce() int {
	if b.TxCoalesce < 1 {
		return 1
	}
	return b.TxCoalesce
}

// kick drains the TX queue; RX kicks only publish fresh buffers.
func (b *NetBackend) kick(q int) {
	if q != NetQTX {
		return
	}
	b.drainTX()
}

// drainTX transmits every available chain.
func (b *NetBackend) drainTX() {
	tx := b.Queue(NetQTX)
	if tx == nil {
		return
	}
	for {
		head, bufs, ok, err := tx.PopAvail()
		if err != nil {
			panic(fmt.Sprintf("virtio-net %s: %v", b.DevName, err))
		}
		if !ok {
			return
		}
		// The packet is the chain's segments, all driver-readable, read
		// straight into one buffer of their total length, which the
		// transport borrows for the call.
		n := 0
		for _, buf := range bufs {
			if buf.DeviceWrite {
				panic(fmt.Sprintf("virtio-net %s: device-writable buffer in a TX chain", b.DevName))
			}
			n += int(buf.Len)
		}
		pkt := b.bufs.Get(n)
		off := 0
		for _, buf := range bufs {
			if err := b.Mem.Read(buf.GPA, pkt[off:off+int(buf.Len)]); err != nil {
				panic(fmt.Sprintf("virtio-net %s: tx read: %v", b.DevName, err))
			}
			off += int(buf.Len)
		}
		b.Transport.Send(pkt, b.txDoneFn(head))
		b.bufs.Put(pkt)
	}
}

// txDoneFn returns head's TX completion callback, made once per head:
// it queues the head for OnIRQ and notifies the host once enough
// completions are pending.
func (b *NetBackend) txDoneFn(head uint16) func() {
	for len(b.txDoneFns) <= int(head) {
		h := uint16(len(b.txDoneFns))
		b.txDoneFns = append(b.txDoneFns, func() {
			b.txDone = append(b.txDone, h)
			if b.NotifyHost != nil && len(b.txDone) >= b.coalesce() {
				b.notify(b.NotifyHost)
			}
		})
	}
	return b.txDoneFns[head]
}

// receive is the transport's inbound callback (event context): queue a
// copy of the packet and ask for kernel-context processing.
func (b *NetBackend) receive(pkt []byte) {
	b.rxArrived = append(b.rxArrived, b.bufs.Copy(pkt))
	if b.NotifyHost != nil {
		b.notify(b.NotifyHost)
	}
}

// OnIRQ implements hv.Device: completion processing in the owning
// kernel's context — retire TX buffers, fill RX buffers, and interrupt
// the guest.
func (b *NetBackend) OnIRQ() {
	raised := false
	tx, rx := b.Queue(NetQTX), b.Queue(NetQRX)
	if tx != nil {
		for _, head := range b.txDone {
			if err := tx.PushUsed(head, 0); err != nil {
				panic(fmt.Sprintf("virtio-net %s: %v", b.DevName, err))
			}
			raised = true
		}
		b.txDone = b.txDone[:0]
	}
	if rx != nil {
		kept := 0
		for i, pkt := range b.rxArrived {
			head, bufs, ok, err := rx.PopAvail()
			if err != nil {
				panic(fmt.Sprintf("virtio-net %s: %v", b.DevName, err))
			}
			if !ok {
				// No posted RX buffers: hold the rest (NIC ring model).
				kept = copy(b.rxArrived, b.rxArrived[i:])
				break
			}
			written := uint32(0)
			left := pkt
			for _, buf := range bufs {
				if !buf.DeviceWrite {
					panic(fmt.Sprintf("virtio-net %s: driver-readable buffer in an RX chain", b.DevName))
				}
				n := int(buf.Len)
				if n > len(left) {
					n = len(left)
				}
				if err := b.Mem.Write(buf.GPA, left[:n]); err != nil {
					panic(fmt.Sprintf("virtio-net %s: rx write: %v", b.DevName, err))
				}
				written += uint32(n)
				left = left[n:]
			}
			// A packet longer than the posted chain is truncated to it.
			if err := rx.PushUsed(head, written); err != nil {
				panic(fmt.Sprintf("virtio-net %s: %v", b.DevName, err))
			}
			b.bufs.Put(pkt)
			b.RxPackets++
			raised = true
		}
		// Reuse the array, clearing the delivered tail so it pins no packet.
		clear(b.rxArrived[kept:])
		b.rxArrived = b.rxArrived[:kept]
	}
	// vhost-style: an active device also picks up freshly posted TX chains
	// during its completion pass, so suppressed kicks still make progress.
	b.drainTX()
	if raised && b.RaiseGuestIRQ != nil {
		b.ObsComplete(b.RxPackets)
		b.RaiseGuestIRQ()
	}
}
