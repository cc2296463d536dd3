// Package netsim models the network substrate of the testbed: a 10 GbE
// NIC (Intel X540) connected over a full-duplex link to a peer machine.
// Links have propagation latency and serialize packets at line rate, so
// netperf-style bandwidth tests saturate realistically (Figure 7's
// network bandwidth sits near the physical 10 Gb/s limit).
package netsim

import "svtsim/internal/sim"

// Conduit is the one packet path of the network stack: the NIC model
// under the host hypervisor's virtio-net backend, a guest's virtio-net
// driver under the guest hypervisor's vhost backend (which is exactly
// how the nested I/O amplification of §6.2 arises), or a WireEnd under
// a netstack.Stack.
//
// Ownership: once a packet is handed to Send or to a receiver, nobody
// writes to it again. Every hop passes the same slice on; none copies.
type Conduit interface {
	// Send transmits pkt; done (may be nil) runs when the local transmit
	// completes, not when the peer receives it.
	Send(pkt []byte, done func())
	// SetReceiver registers the inbound packet callback.
	SetReceiver(fn func(pkt []byte))
}

// Endpoint receives packets from a link.
type Endpoint interface {
	Receive(pkt []byte)
}

// Link is one direction of a full-duplex cable.
type Link struct {
	Eng        *sim.Engine
	Latency    sim.Time // propagation + switch latency
	BitsPerSec float64  // line rate

	busyUntil sim.Time
	// onWire holds the packets between Send and their arrival. Arrivals
	// are busyUntil plus a fixed latency, so they leave in send order.
	onWire sim.FIFO[arrival]
}

// arrival is a packet on the wire and the endpoint it is bound for.
type arrival struct {
	pkt []byte
	dst Endpoint
}

// NewLink builds a link; rate is in bits per second.
func NewLink(eng *sim.Engine, latency sim.Time, rate float64) *Link {
	return &Link{Eng: eng, Latency: latency, BitsPerSec: rate}
}

// txTime is the serialization delay of size bytes at line rate.
func (l *Link) txTime(size int) sim.Time {
	if l.BitsPerSec <= 0 {
		return 0
	}
	return sim.Time(float64(size*8) / l.BitsPerSec * float64(sim.Second))
}

// Send transmits pkt to dst, modelling serialization and propagation.
// It returns the time the last bit leaves the wire locally (TX done).
func (l *Link) Send(pkt []byte, dst Endpoint) sim.Time {
	start := l.Eng.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txDone := start + l.txTime(len(pkt))
	l.busyUntil = txDone
	l.onWire.At(l.Eng, txDone+l.Latency, l, arrival{pkt, dst})
	return txDone
}

// Fire implements sim.Handler: the oldest packet on the wire arrives.
func (l *Link) Fire(arg uint64) {
	a := l.onWire.Pop(arg, "netsim link")
	a.dst.Receive(a.pkt)
}

// nicDMADelay models descriptor fetch + PCIe DMA before the wire.
const nicDMADelay = 2 * sim.Microsecond

// NIC is the host's physical network interface: a Conduit on one side,
// a link pair on the other.
type NIC struct {
	Eng  *sim.Engine
	Out  *Link // NIC -> peer
	Peer Endpoint

	recv func(pkt []byte)
	// tx and rx hold the packets in DMA, each a fixed nicDMADelay long,
	// so each leaves in the order it entered.
	tx sim.FIFO[txDMA]
	rx sim.FIFO[[]byte]
}

// txDMA is an outbound packet in DMA and its transmit-done callback.
type txDMA struct {
	pkt  []byte
	done func()
}

// nicRx is the NIC's second event kind: an inbound DMA completing.
type nicRx NIC

// NewNIC builds a NIC transmitting on out; the caller sets Peer.
func NewNIC(eng *sim.Engine, out *Link) *NIC {
	return &NIC{Eng: eng, Out: out}
}

// Send implements Conduit: DMA the packet, put it on the wire, and
// report TX completion when the last bit leaves.
func (n *NIC) Send(pkt []byte, done func()) {
	n.tx.At(n.Eng, n.Eng.Now()+nicDMADelay, n, txDMA{pkt, done})
}

// Fire implements sim.Handler: the oldest outbound DMA completes and
// its packet goes on the wire.
func (n *NIC) Fire(arg uint64) {
	d := n.tx.Pop(arg, "netsim NIC transmit")
	txDone := n.Out.Send(d.pkt, n.Peer)
	if d.done != nil {
		n.Eng.At(txDone, d.done)
	}
}

// SetReceiver implements Conduit.
func (n *NIC) SetReceiver(fn func(pkt []byte)) { n.recv = fn }

// Receive implements Endpoint: inbound packets go to the registered
// receiver (the host's virtio backend) after DMA.
func (n *NIC) Receive(pkt []byte) {
	if n.recv == nil {
		return
	}
	n.rx.At(n.Eng, n.Eng.Now()+nicDMADelay, (*nicRx)(n), pkt)
}

// Fire implements sim.Handler: the oldest inbound DMA completes and its
// packet goes to the receiver.
func (r *nicRx) Fire(arg uint64) {
	r.recv(r.rx.Pop(arg, "netsim NIC receive"))
}

// WireEnd is one end of a wire: a Conduit whose Send puts each packet
// on Out toward Dst, after Think when it is positive (a peer's service
// delay), and an Endpoint whose Receive hands inbound packets to the
// registered receiver. Local transmit completes at once.
type WireEnd struct {
	Out   *Link
	Dst   Endpoint
	Think sim.Time

	recv func(pkt []byte)
}

// Send implements Conduit.
func (w *WireEnd) Send(pkt []byte, done func()) {
	eng := w.Out.Eng
	if w.Think > 0 {
		eng.After(w.Think, func() { w.Out.Send(pkt, w.Dst) })
	} else {
		w.Out.Send(pkt, w.Dst)
	}
	if done != nil {
		eng.After(0, done)
	}
}

// SetReceiver implements Conduit.
func (w *WireEnd) SetReceiver(fn func(pkt []byte)) { w.recv = fn }

// Receive implements Endpoint.
func (w *WireEnd) Receive(pkt []byte) {
	if w.recv != nil {
		w.recv(pkt)
	}
}
