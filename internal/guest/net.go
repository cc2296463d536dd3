package guest

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// NetDriver is the virtio-net front end inside the guest.
type NetDriver struct {
	Env    *Env
	Vector int
	MMIO   uint64 // device window base (queue-notify registers)

	TX, RX *virtio.Queue

	txInflight map[uint16]func()
	txBufs     []netBuf // arena buffers of packets in flight, by chain head
	rxBufs     []netBuf // posted receive buffers, by chain head
	// rxCopies holds the received packets OnIRQ reads out of guest RAM.
	rxCopies netsim.Buffers
	// OnReceive is the protocol stack's inbound hook. The packet is
	// borrowed for the call (netsim.Conduit); a hook that keeps it
	// copies it.
	OnReceive func(pkt []byte)

	// PerPacketCPU models the guest network stack's per-packet cost.
	PerPacketCPU sim.Time
}

// netBuf is an arena buffer in one of the driver's per-head tables. live
// marks an occupied entry, so a zero-length packet's buffer is still
// freed.
type netBuf struct {
	gpa  uint64
	n    uint32
	live bool
}

// entry returns head's entry in a per-head table, growing the table as
// the ring hands out higher heads.
func entry[T any](t *[]T, head uint16) *T {
	for len(*t) <= int(head) {
		var zero T
		*t = append(*t, zero)
	}
	return &(*t)[head]
}

// The drivers' rings and buffers match small virtio-net-pci and
// virtio-blk-pci devices.
const (
	netQueueSize = 256
	blkQueueSize = 64
	netRXBuffers = 64
	netBufSize   = 2048
)

// NewNetDriver initializes the queues in guest memory and pre-posts RX
// buffers. layoutBase is guest-physical scratch space for the rings.
func NewNetDriver(e *Env, vector int, mmio uint64, layoutBase uint64) (*NetDriver, error) {
	txL := virtio.NewLayout(layoutBase, netQueueSize)
	rxL := virtio.NewLayout(txL.End()+64, netQueueSize)
	tx, err := virtio.NewQueue(txL, e.Mem, true)
	if err != nil {
		return nil, err
	}
	rx, err := virtio.NewQueue(rxL, e.Mem, true)
	if err != nil {
		return nil, err
	}
	d := &NetDriver{
		Env:          e,
		Vector:       vector,
		MMIO:         mmio,
		TX:           tx,
		RX:           rx,
		txInflight:   make(map[uint16]func()),
		rxBufs:       make([]netBuf, netRXBuffers),
		PerPacketCPU: 900, // ns: skb alloc + stack traversal
	}
	// Device probe: program the queue geometry through trapped MMIO
	// registers (a realistic boot-time exit storm for nested guests).
	exec := func(addr, val uint64) { e.Port.Exec(isa.MMIOWrite(addr, val)) }
	virtio.ConfigureQueue(exec, mmio, virtio.NetQTX, txL)
	virtio.ConfigureQueue(exec, mmio, virtio.NetQRX, rxL)
	for i := 0; i < netRXBuffers; i++ {
		if err := d.postRX(netBuf{gpa: e.Alloc(netBufSize), n: netBufSize, live: true}); err != nil {
			return nil, err
		}
	}
	// Publish the pre-posted RX buffers to the device.
	e.Port.Exec(isa.MMIOWrite(mmio+virtio.RegQueueNotify, virtio.NetQRX))
	e.Net = d
	return d, nil
}

// postRX posts b on the RX ring and records it under its chain head. The
// ring holds at most netRXBuffers chains and recycles the head it frees
// last first, so heads stay inside the table.
func (d *NetDriver) postRX(b netBuf) error {
	head, err := d.RX.Post([]virtio.Buf{{GPA: b.gpa, Len: b.n, DeviceWrite: true}})
	if err != nil {
		return err
	}
	d.rxBufs[head] = b
	return nil
}

// Send implements netsim.Conduit: it transmits pkt, and done (may be
// nil) runs when the TX buffer is reclaimed. Send copies pkt into guest
// RAM before it returns, as a socket send copies into an skb, so the
// caller may reuse pkt at once. The kick is a real MMIO write that
// exits. A ring error panics naming the driver.
func (d *NetDriver) Send(pkt []byte, done func()) {
	d.Env.Compute(d.PerPacketCPU)
	gpa := d.Env.Alloc(uint64(len(pkt)))
	if err := d.Env.Mem.Write(gpa, pkt); err != nil {
		panic(fmt.Sprintf("guest net: tx copy: %v", err))
	}
	head, err := d.TX.Post([]virtio.Buf{{GPA: gpa, Len: uint32(len(pkt))}})
	if err != nil {
		panic(fmt.Sprintf("guest net: %v", err))
	}
	d.txInflight[head] = done
	*entry(&d.txBufs, head) = netBuf{gpa: gpa, n: uint32(len(pkt)), live: true}
	// Every send kicks the device. Kick suppression (virtio's EVENT_IDX)
	// would need the full avail-event handshake to avoid lost wakeups; at
	// 10 GbE the wire is slower than the exit path even nested, so the
	// benchmark shapes are unaffected.
	d.Env.Port.Exec(isa.MMIOWrite(d.MMIO+virtio.RegQueueNotify, virtio.NetQTX))
}

// SetReceiver implements netsim.Conduit: fn runs on each inbound
// packet, before whatever OnReceive held.
func (d *NetDriver) SetReceiver(fn func(pkt []byte)) {
	prev := d.OnReceive
	d.OnReceive = func(pkt []byte) {
		fn(pkt)
		if prev != nil {
			prev(pkt)
		}
	}
}

// OnIRQ is the kernel-side completion handler: retire TX, deliver RX.
// Per the virtio-mmio contract the driver first acknowledges the device
// interrupt — a trapped MMIO write.
func (d *NetDriver) OnIRQ() {
	d.Env.Port.Exec(isa.MMIOWrite(d.MMIO+virtio.RegIntrAck, 1))
	for {
		head, _, ok, err := d.TX.PopUsed()
		if err != nil {
			panic(fmt.Sprintf("guest net: %v", err))
		}
		if !ok {
			break
		}
		if int(head) < len(d.txBufs) && d.txBufs[head].live {
			b := d.txBufs[head]
			d.txBufs[head] = netBuf{}
			d.Env.Free(b.gpa, uint64(b.n))
		}
		if done := d.txInflight[head]; done != nil {
			done()
		}
		delete(d.txInflight, head)
	}
	for {
		head, n, ok, err := d.RX.PopUsed()
		if err != nil {
			panic(fmt.Sprintf("guest net: %v", err))
		}
		if !ok {
			break
		}
		if int(head) >= len(d.rxBufs) || !d.rxBufs[head].live {
			panic(fmt.Sprintf("guest net: driver at %#x: used rx head %d has no posted buffer", d.MMIO, head))
		}
		buf := d.rxBufs[head]
		d.rxBufs[head] = netBuf{}
		data := d.rxCopies.Get(int(n))
		if err := d.Env.Mem.Read(buf.gpa, data); err != nil {
			panic(fmt.Sprintf("guest net: rx copy: %v", err))
		}
		d.Env.Compute(d.PerPacketCPU)
		// Repost the same buffer for future packets.
		if err := d.postRX(buf); err != nil {
			panic(fmt.Sprintf("guest net: rx repost: %v", err))
		}
		if d.OnReceive != nil {
			d.OnReceive(data)
		}
		d.rxCopies.Put(data)
	}
}
