// Package netstack layers a deterministic TCP-ish transport over the
// simulator's packet conduits (netsim.Conduit: a guest's virtio-net
// driver or a netsim wire end). It provides connections
// (flows), in-order segment delivery over a reordering/lossy path,
// go-back-N retransmission driven by virtual-time timers, and
// flow-controlled sliding windows — everything the open-loop traffic
// plane needs to look like production RPC traffic while staying
// byte-identical at any parallelism width.
//
// All state mutation happens inside engine event context, so a stack is
// exactly as deterministic as the engine that drives it. Loss and delay
// come from the fault plane via the net/segment site (fault.SiteNetSegment);
// a stack with no plane armed is a perfectly reliable in-order transport
// and never retransmits.
package netstack

import (
	"encoding/binary"
	"fmt"

	"svtsim/internal/fault"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
)

// NewPipe builds a connected pair of wire ends with the given one-way
// latency and no line rate: an in-engine conduit for stacks that do not
// sit on a virtio NIC.
func NewPipe(eng *sim.Engine, lat sim.Time) (*netsim.WireEnd, *netsim.WireEnd) {
	a := &netsim.WireEnd{Out: netsim.NewLink(eng, lat, 0)}
	b := &netsim.WireEnd{Out: netsim.NewLink(eng, lat, 0), Dst: a}
	a.Dst = b
	return a, b
}

// Segment header layout (22 bytes, big-endian):
//
//	[0:2]   magic 0xA5 0x17 — distinguishes netstack segments from raw
//	        packets sharing a conduit (echo peers, netping payloads)
//	[2]     flags (SYN | ACK | DATA); bit 2 is unused
//	[3]     reserved (zero)
//	[4:8]   flow ID
//	[8:12]  seq — first payload byte's offset in the flow's byte stream
//	[12:16] ack — next byte the sender of this segment expects
//	[16:20] wnd — advertised receive window in bytes
//	[20:22] payload length
const (
	magic0 = 0xA5
	magic1 = 0x17

	// HeaderSize is the fixed segment header length in bytes.
	HeaderSize = 22

	flagSYN  = 1 << 0
	flagACK  = 1 << 1
	flagDATA = 1 << 3
)

// Segment is one decoded netstack segment.
type Segment struct {
	Flags   byte
	FlowID  uint32
	Seq     uint32
	Ack     uint32
	Wnd     uint32
	Payload []byte
}

// IsSegment reports whether pkt carries the netstack magic. Non-segment
// packets on a shared conduit are passed through untouched.
func IsSegment(pkt []byte) bool {
	return len(pkt) >= HeaderSize && pkt[0] == magic0 && pkt[1] == magic1
}

// Append appends the encoded segment (header + payload copy) to b and
// returns the extended slice.
func (s Segment) Append(b []byte) []byte {
	b = append(b, magic0, magic1, s.Flags, 0)
	b = binary.BigEndian.AppendUint32(b, s.FlowID)
	b = binary.BigEndian.AppendUint32(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, s.Ack)
	b = binary.BigEndian.AppendUint32(b, s.Wnd)
	b = binary.BigEndian.AppendUint16(b, uint16(len(s.Payload)))
	return append(b, s.Payload...)
}

// Decode parses a segment; the payload aliases pkt.
func Decode(pkt []byte) (Segment, error) {
	if !IsSegment(pkt) {
		return Segment{}, fmt.Errorf("netstack: not a segment (%d bytes)", len(pkt))
	}
	n := int(binary.BigEndian.Uint16(pkt[20:22]))
	if len(pkt) < HeaderSize+n {
		return Segment{}, fmt.Errorf("netstack: truncated segment: header says %d payload bytes, have %d", n, len(pkt)-HeaderSize)
	}
	return Segment{
		Flags:   pkt[2],
		FlowID:  binary.BigEndian.Uint32(pkt[4:8]),
		Seq:     binary.BigEndian.Uint32(pkt[8:12]),
		Ack:     binary.BigEndian.Uint32(pkt[12:16]),
		Wnd:     binary.BigEndian.Uint32(pkt[16:20]),
		Payload: pkt[HeaderSize : HeaderSize+n],
	}, nil
}

// Params configures a Stack. The zero value selects the defaults.
type Params struct {
	// MSS bounds a DATA segment's payload. Default 1024.
	MSS int
	// Window is the per-flow receive buffer, which is also the window
	// advertised to the peer. Default 8192.
	Window int
	// RTO is the retransmission timeout. It is fixed (no adaptive
	// estimation, no backoff) so that loss recovery is a pure function
	// of the seed. Default 500 µs.
	RTO sim.Time
	// AckDelay, when positive, enables delayed ACKs with piggybacking:
	// a DATA segment is not acknowledged immediately — the cumulative
	// ack rides the next outbound segment on the flow, and only if none
	// goes out within AckDelay does a pure ACK fire. Zero (the default)
	// keeps the immediate-ACK behavior. Both settings are equally
	// deterministic; delayed ACKs exist for request/response flows
	// where the back-to-back ACK+DATA pair would otherwise double the
	// packet rate (the differential harness relies on the strict
	// ping-pong shape this produces).
	AckDelay sim.Time
}

func (p Params) withDefaults() Params {
	if p.MSS <= 0 {
		p.MSS = 1024
	}
	if p.Window <= 0 {
		p.Window = 8192
	}
	if p.RTO <= 0 {
		p.RTO = 500 * sim.Microsecond
	}
	return p
}

// Stats is a stack's lifetime counter block.
type Stats struct {
	SegsSent    uint64 // segments handed to the conduit (incl. retransmits)
	SegsRecv    uint64 // well-formed segments received
	Retransmits uint64 // RTO-driven resends
	Dropped     uint64 // segments lost to the fault plane at this sender
	OutOfOrder  uint64 // DATA segments buffered past a gap
	Malformed   uint64 // packets with the magic but an invalid header
}

// Stack multiplexes flows over one conduit. Create with New; open
// active flows with Open, and receive passive opens via OnFlow.
type Stack struct {
	Eng *sim.Engine
	P   Params

	c     netsim.Conduit
	flows map[uint32]*Flow
	// bufs holds the segments the stack encodes and the out-of-order
	// payloads its flows keep.
	bufs netsim.Buffers

	// OnFlow, when set, is invoked for each passively opened flow (a
	// SYN for an unknown ID) before any of its data is delivered.
	OnFlow func(*Flow)

	Stats
}

// New builds a stack over the conduit and registers as its receiver.
// Every outbound segment consults fault.SiteNetSegment, which is inert
// until a fault plane arms that site.
func New(eng *sim.Engine, c netsim.Conduit, p Params) *Stack {
	st := &Stack{
		Eng:   eng,
		P:     p.withDefaults(),
		c:     c,
		flows: make(map[uint32]*Flow),
	}
	c.SetReceiver(st.Deliver)
	return st
}

// Open actively opens flow id: a SYN goes out immediately and Write is
// legal at once (data transmits when the handshake completes). Opening
// an existing ID returns the existing flow.
func (st *Stack) Open(id uint32) *Flow {
	if f := st.flows[id]; f != nil {
		return f
	}
	f := st.newFlow(id)
	f.sendCtl(flagSYN)
	f.armRTO()
	return f
}

func (st *Stack) newFlow(id uint32) *Flow {
	f := &Flow{
		S:       st,
		ID:      id,
		peerWnd: uint32(st.P.Window), // assume symmetric until first ACK
		ooo:     make(map[uint32][]byte),
	}
	st.flows[id] = f
	return f
}

// Deliver feeds one raw packet into the stack (the conduit receiver;
// exported so composite demuxers and tests can inject directly).
// Non-segment packets are ignored.
func (st *Stack) Deliver(pkt []byte) {
	if !IsSegment(pkt) {
		return
	}
	seg, err := Decode(pkt)
	if err != nil {
		st.Malformed++
		return
	}
	st.SegsRecv++
	f := st.flows[seg.FlowID]
	if f == nil {
		if seg.Flags&flagSYN == 0 {
			// Data for a flow we never opened: drop. The peer's RTO
			// will retry and hit the same wall; that is fine — a
			// half-configured topology should be loud, not subtly lossy.
			return
		}
		f = st.newFlow(seg.FlowID)
		f.established = true
		if st.OnFlow != nil {
			st.OnFlow(f)
		}
		f.sendCtl(flagSYN | flagACK)
		return
	}
	f.handle(seg)
}

// send pushes one segment through the fault plane and onto the conduit.
// The conduit borrows the encoded segment for the call; a delayed one is
// kept in the stack's buffer until it goes out.
func (st *Stack) send(seg Segment) {
	st.SegsSent++
	raw := seg.Append(st.bufs.Get(HeaderSize + len(seg.Payload))[:0])
	out := st.Eng.Inject(fault.SiteNetSegment)
	if out.Drop {
		st.Dropped++
		st.bufs.Put(raw)
		return
	}
	if out.Delay > 0 {
		st.Eng.After(out.Delay, func() { st.transmit(raw) })
		return
	}
	st.transmit(raw)
}

// transmit lends raw to the conduit and recycles it.
func (st *Stack) transmit(raw []byte) {
	st.c.Send(raw, nil)
	st.bufs.Put(raw)
}

// Flow is one connection's endpoint state within a Stack.
type Flow struct {
	S  *Stack
	ID uint32

	established bool

	// Send side. sndBuf holds every byte from sndUna onward; the prefix
	// [0, sndNxt-sndUna) is in flight, the rest is unsent backlog.
	sndUna  uint32
	sndNxt  uint32
	sndBuf  []byte
	peerWnd uint32
	rto     sim.EventRef
	rtoSet  bool

	// Receive side. rcvQ is in-order payload not yet consumed; ooo
	// buffers copies of segments past a gap, keyed by seq.
	rcvNxt   uint32
	rcvQ     []byte
	ooo      map[uint32][]byte
	oooBytes int

	// Delayed-ACK state (AckDelay > 0 only): segsOut counts outbound
	// segments on this flow so handleData can tell whether something
	// already carried the ack; ackTimer is the pending pure-ACK.
	segsOut  uint64
	ackSet   bool
	ackTimer sim.EventRef

	// Manual, when true, suppresses automatic consumption: received
	// bytes accumulate in rcvQ and the advertised window shrinks
	// accordingly (this is how tests exercise window stall/resume and
	// the zero-window probe). When false
	// (default) in-order bytes are handed to OnData and the window
	// never closes.
	Manual bool
	// OnData receives each in-order chunk as it becomes deliverable
	// (automatic mode only). The chunk is borrowed for the call, as
	// packets are (netsim.Conduit); a handler that keeps it copies it.
	OnData func(b []byte)
}

// Established reports whether the handshake completed.
func (f *Flow) Established() bool { return f.established }

// Write queues b on the flow's byte stream; the stack segments it,
// respects the peer's window, and retransmits on loss. The bytes are
// copied.
func (f *Flow) Write(b []byte) {
	if len(b) == 0 {
		return
	}
	f.sndBuf = append(f.sndBuf, b...)
	f.pump()
}

// window is the receive window this end advertises.
func (f *Flow) window() uint32 {
	used := len(f.rcvQ) + f.oooBytes
	if used >= f.S.P.Window {
		return 0
	}
	return uint32(f.S.P.Window - used)
}

// inflight is the unacknowledged byte count.
func (f *Flow) inflight() uint32 { return f.sndNxt - f.sndUna }

// pump transmits as much backlog as the peer's window allows.
func (f *Flow) pump() {
	if !f.established {
		return
	}
	for {
		avail := len(f.sndBuf) - int(f.inflight())
		if avail <= 0 {
			break
		}
		wnd := f.peerWnd
		infl := f.inflight()
		if infl >= wnd {
			break // window closed: wait for an ACK/window update
		}
		n := avail
		if room := int(wnd - infl); n > room {
			n = room
		}
		if n > f.S.P.MSS {
			n = f.S.P.MSS
		}
		off := int(f.sndNxt - f.sndUna)
		f.segsOut++
		f.clearAck()
		f.S.send(Segment{
			Flags:   flagDATA | flagACK,
			FlowID:  f.ID,
			Seq:     f.sndNxt,
			Ack:     f.rcvNxt,
			Wnd:     f.window(),
			Payload: f.sndBuf[off : off+n],
		})
		f.sndNxt += uint32(n)
	}
	// Arm the timer while anything is unacknowledged, and also while
	// backlog waits on a closed window: if the peer's window-update ACK
	// is lost, the timeout fires a zero-window probe instead of
	// deadlocking the flow.
	if f.inflight() > 0 || (len(f.sndBuf) > 0 && f.peerWnd == 0) {
		f.armRTO()
	}
}

// sendCtl emits a payload-free control segment (SYN / ACK).
func (f *Flow) sendCtl(flags byte) {
	f.segsOut++
	f.clearAck()
	f.S.send(Segment{
		Flags:  flags,
		FlowID: f.ID,
		Seq:    f.sndNxt,
		Ack:    f.rcvNxt,
		Wnd:    f.window(),
	})
}

// flowRTO and flowAck are a flow's two timers, sim.Handlers over it.
type (
	flowRTO Flow
	flowAck Flow
)

// Fire runs the retransmission timeout.
func (r *flowRTO) Fire(uint64) { (*Flow)(r).fireRTO() }

// Fire sends the delayed pure ACK.
func (a *flowAck) Fire(uint64) {
	f := (*Flow)(a)
	f.ackSet = false
	f.sendCtl(flagACK)
}

func (f *Flow) armRTO() {
	if f.rtoSet {
		return
	}
	f.rtoSet = true
	eng := f.S.Eng
	f.rto = eng.AtCall(eng.Now()+f.S.P.RTO, (*flowRTO)(f), 0)
}

func (f *Flow) cancelRTO() {
	if !f.rtoSet {
		return
	}
	f.S.Eng.Cancel(f.rto)
	f.rtoSet = false
}

// armAck schedules the delayed pure ACK; any outbound segment before it
// fires piggybacks the ack and cancels it (clearAck).
func (f *Flow) armAck() {
	if f.ackSet {
		return
	}
	f.ackSet = true
	eng := f.S.Eng
	f.ackTimer = eng.AtCall(eng.Now()+f.S.P.AckDelay, (*flowAck)(f), 0)
}

func (f *Flow) clearAck() {
	if !f.ackSet {
		return
	}
	f.S.Eng.Cancel(f.ackTimer)
	f.ackSet = false
}

// fireRTO retransmits go-back-N style: the oldest unacknowledged
// segment goes out again (the peer's cumulative ACK then pulls the rest
// forward or the next timeout resends more). An unestablished flow
// resends its SYN.
func (f *Flow) fireRTO() {
	f.rtoSet = false
	if !f.established {
		f.S.Retransmits++
		f.sendCtl(flagSYN)
		f.armRTO()
		return
	}
	if f.inflight() == 0 {
		if len(f.sndBuf) > 0 && f.peerWnd == 0 {
			// Zero-window probe: push one byte past the closed window
			// (the receiver accepts in-order data regardless and its ACK
			// carries the current window, unsticking us if the earlier
			// window update was lost).
			f.S.Retransmits++
			f.S.send(Segment{
				Flags: flagDATA | flagACK, FlowID: f.ID,
				Seq: f.sndNxt, Ack: f.rcvNxt, Wnd: f.window(),
				Payload: f.sndBuf[:1],
			})
			f.sndNxt++
			f.armRTO()
		}
		return
	}
	n := int(f.inflight())
	if n > f.S.P.MSS {
		n = f.S.P.MSS
	}
	f.S.Retransmits++
	f.S.send(Segment{
		Flags:   flagDATA | flagACK,
		FlowID:  f.ID,
		Seq:     f.sndUna,
		Ack:     f.rcvNxt,
		Wnd:     f.window(),
		Payload: f.sndBuf[:n],
	})
	f.armRTO()
}

// handle processes one inbound segment for an existing flow.
func (f *Flow) handle(seg Segment) {
	if seg.Flags&flagSYN != 0 {
		// SYN or SYN|ACK: handshake completes (idempotent on dup SYN).
		if !f.established {
			f.established = true
			f.cancelRTO()
			if seg.Flags&flagACK == 0 {
				f.sendCtl(flagSYN | flagACK)
			}
			f.pump()
		} else if seg.Flags&flagACK == 0 {
			f.sendCtl(flagSYN | flagACK) // our SYN|ACK was lost; re-ack
		}
		return
	}
	if seg.Flags&flagACK != 0 {
		f.handleAck(seg)
	}
	if seg.Flags&flagDATA != 0 && len(seg.Payload) > 0 {
		f.handleData(seg)
	}
}

func (f *Flow) handleAck(seg Segment) {
	if d := seg.Ack - f.sndUna; d > 0 && d <= f.inflight() {
		// Slide the unacknowledged bytes to the front, keeping the array.
		f.sndBuf = f.sndBuf[:copy(f.sndBuf, f.sndBuf[d:])]
		f.sndUna = seg.Ack
		f.cancelRTO()
	}
	f.peerWnd = seg.Wnd
	f.pump()
}

func (f *Flow) handleData(seg Segment) {
	sent0 := f.segsOut
	switch {
	case seg.Seq == f.rcvNxt:
		f.ingest(seg.Payload)
		// Drain any out-of-order successors that are now contiguous.
		for {
			p, ok := f.ooo[f.rcvNxt]
			if !ok {
				break
			}
			delete(f.ooo, f.rcvNxt)
			f.oooBytes -= len(p)
			f.ingest(p)
			f.S.bufs.Put(p)
		}
	case seg.Seq-f.rcvNxt < uint32(f.S.P.Window): // ahead, within window
		if _, dup := f.ooo[seg.Seq]; !dup {
			f.S.OutOfOrder++
			f.ooo[seg.Seq] = f.S.bufs.Copy(seg.Payload)
			f.oooBytes += len(seg.Payload)
		}
	}
	// A segment at or below rcvNxt retransmits data we already have and
	// is only acknowledged. By default every DATA segment is acknowledged immediately, telling
	// the sender both the cumulative in-order point and the current
	// window. Under AckDelay the ack piggybacks instead: if delivering
	// the payload already pushed a segment out (OnData wrote a response,
	// which carries the ack), nothing more is needed; otherwise a pure
	// ACK is deferred, to be absorbed by the next outbound segment.
	if f.S.P.AckDelay <= 0 {
		f.sendCtl(flagACK)
	} else if f.segsOut == sent0 {
		f.armAck()
	}
}

// ingest advances rcvNxt over an in-order chunk and delivers it; p is
// borrowed for the call.
func (f *Flow) ingest(p []byte) {
	f.rcvNxt += uint32(len(p))
	if f.Manual {
		f.rcvQ = append(f.rcvQ, p...)
		return
	}
	if f.OnData != nil {
		f.OnData(p)
	}
}
