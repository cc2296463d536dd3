package netstack

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/netsim"
	"svtsim/internal/race"
	"svtsim/internal/sim"
)

func TestSegmentEncodeDecode(t *testing.T) {
	in := Segment{
		Flags: flagDATA | flagACK, FlowID: 7, Seq: 4096, Ack: 512, Wnd: 8192,
		Payload: []byte("hello, netstack"),
	}
	raw := in.Append(nil)
	if !IsSegment(raw) {
		t.Fatal("encoded segment does not carry the magic")
	}
	// The wire layout byte for byte: magic, flags, reserved, flow ID,
	// seq, ack, window, payload length, payload.
	want := "a5170a00" + "00000007" + "00001000" + "00000200" + "00002000" + "000f" + hex.EncodeToString(in.Payload)
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	if got := in.Append([]byte{1, 2, 3}); !bytes.Equal(got[:3], []byte{1, 2, 3}) || !bytes.Equal(got[3:], raw) {
		t.Fatal("Append does not append after the prefix")
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Flags != in.Flags || out.FlowID != in.FlowID || out.Seq != in.Seq ||
		out.Ack != in.Ack || out.Wnd != in.Wnd || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
	if _, err := Decode(raw[:HeaderSize-1]); err == nil {
		t.Fatal("truncated header must not decode")
	}
	raw[21] = 0xFF // header claims more payload than present
	if _, err := Decode(raw); err == nil {
		t.Fatal("truncated payload must not decode")
	}
}

// pair builds two stacks over a pipe and completes the handshake.
func pair(t *testing.T, eng *sim.Engine, lat sim.Time, p Params) (*Stack, *Stack, *Flow) {
	t.Helper()
	ca, cb := NewPipe(eng, lat)
	return pairOver(t, eng, ca, cb, p)
}

// reorderEnd is one end of a test pipe that prices each packet's delay
// individually (index is the send ordinal on this end), which is how
// tests build deterministic reordering paths.
type reorderEnd struct {
	eng   *sim.Engine
	peer  *reorderEnd
	delay func(index uint64) sim.Time
	sent  uint64
	recv  func(pkt []byte)
}

func newReorderPipe(eng *sim.Engine, lat sim.Time) (*reorderEnd, *reorderEnd) {
	fixed := func(uint64) sim.Time { return lat }
	a := &reorderEnd{eng: eng, delay: fixed}
	b := &reorderEnd{eng: eng, delay: fixed, peer: a}
	a.peer = b
	return a, b
}

// Send keeps a copy of pkt until its delay ends: the packet is borrowed
// for the call.
func (e *reorderEnd) Send(pkt []byte, done func()) {
	peer := e.peer
	pkt = append([]byte(nil), pkt...)
	e.eng.After(e.delay(e.sent), func() {
		if peer.recv != nil {
			peer.recv(pkt)
		}
	})
	e.sent++
	if done != nil {
		e.eng.After(0, done)
	}
}

func (e *reorderEnd) SetReceiver(fn func(pkt []byte)) { e.recv = fn }

// pairOver builds two stacks over the conduits ca and cb and completes
// the handshake.
func pairOver(t *testing.T, eng *sim.Engine, ca, cb netsim.Conduit, p Params) (*Stack, *Stack, *Flow) {
	t.Helper()
	a := New(eng, ca, p)
	b := New(eng, cb, p)
	fa := a.Open(1)
	eng.Drain(100)
	if !fa.Established() || b.flows[1] == nil || !b.flows[1].Established() {
		t.Fatal("handshake did not complete")
	}
	return a, b, fa
}

// TestSegmentOrdering covers in-order delivery over paths that reorder
// segments in flight: whatever arrival order the conduit produces, the
// application sees the byte stream in sequence.
func TestSegmentOrdering(t *testing.T) {
	msg := make([]byte, 3000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	cases := []struct {
		name string
		// delay prices packet i on the sender's conduit end.
		delay func(i uint64) sim.Time
	}{
		{"in-order path", func(i uint64) sim.Time { return sim.Microsecond }},
		{"first data segment straggles", func(i uint64) sim.Time {
			if i == 1 { // 0 is the SYN
				return 50 * sim.Microsecond
			}
			return sim.Microsecond
		}},
		{"fully reversed", func(i uint64) sim.Time {
			return sim.Time(100-i*10) * sim.Microsecond
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			ca, cb := newReorderPipe(eng, sim.Microsecond)
			_, b, fa := pairOver(t, eng, ca, cb, Params{MSS: 1024})
			var got []byte
			b.flows[1].OnData = func(p []byte) { got = append(got, p...) }
			ca.delay = tc.delay
			fa.Write(msg)
			eng.Drain(10000)
			if !bytes.Equal(got, msg) {
				t.Fatalf("stream corrupted: got %d bytes, want %d (reordering must be invisible)", len(got), len(msg))
			}
		})
	}
}

func TestReorderedSegmentsAreBuffered(t *testing.T) {
	eng := sim.New()
	ca, cb := newReorderPipe(eng, sim.Microsecond)
	a, b, fa := pairOver(t, eng, ca, cb, Params{MSS: 512})
	var got []byte
	b.flows[1].OnData = func(p []byte) { got = append(got, p...) }
	// Delay only the first DATA segment so its successors arrive early.
	ca.delay = func(i uint64) sim.Time {
		if i == 1 {
			return 40 * sim.Microsecond
		}
		return sim.Microsecond
	}
	fa.Write(make([]byte, 2048)) // 4 segments
	eng.Drain(10000)
	if len(got) != 2048 {
		t.Fatalf("delivered %d bytes, want 2048", len(got))
	}
	if b.OutOfOrder == 0 {
		t.Fatal("path reordered segments but the receiver buffered none out of order")
	}
	if a.Retransmits != 0 {
		t.Fatalf("reordering alone must not trigger retransmits, got %d", a.Retransmits)
	}
}

// TestRetransmitAfterDrop drops exactly one DATA segment on the wire via
// the fault plane; the sender's RTO must recover it and the stream must
// arrive intact.
func TestRetransmitAfterDrop(t *testing.T) {
	eng := sim.New()
	pl := fault.NewPlane(eng, 42)
	// Consults at the net/segment site: 1=SYN, 2=SYN|ACK, 3=first DATA.
	pl.Add(fault.SiteConfig{Site: fault.SiteNetSegment, Every: 1, After: 2, Limit: 1, Drop: true})
	_, b, fa := pair(t, eng, sim.Microsecond, Params{MSS: 512, RTO: 200 * sim.Microsecond})
	var got []byte
	b.flows[1].OnData = func(p []byte) { got = append(got, p...) }
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i)
	}
	fa.Write(msg)
	eng.Drain(10000)
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted after drop: %d bytes, want %d", len(got), len(msg))
	}
	if fa.S.Dropped != 1 {
		t.Fatalf("fault plane dropped %d segments, want 1", fa.S.Dropped)
	}
	if fa.S.Retransmits == 0 {
		t.Fatal("drop recovered without a retransmit?")
	}
	// The drop is also visible at the receiver as out-of-order arrival
	// (segment 2 landed before the retransmitted segment 1).
	if b.OutOfOrder == 0 {
		t.Fatal("expected successor segments buffered past the gap")
	}
}

func TestRetransmitRecoversDroppedSYN(t *testing.T) {
	eng := sim.New()
	pl := fault.NewPlane(eng, 1)
	pl.Add(fault.SiteConfig{Site: fault.SiteNetSegment, Every: 1, Limit: 1, Drop: true})
	_, b, fa := pair(t, eng, sim.Microsecond, Params{RTO: 100 * sim.Microsecond})
	var got []byte
	b.flows[1].OnData = func(p []byte) { got = append(got, p...) }
	fa.Write([]byte("after syn loss"))
	eng.Drain(10000)
	if string(got) != "after syn loss" {
		t.Fatalf("got %q", got)
	}
	if fa.S.Retransmits == 0 {
		t.Fatal("SYN drop must be recovered by the handshake timer")
	}
}

// TestWindowStallResume pins flow control: a manual-consume receiver
// with a small window stalls the sender exactly at the window edge, and
// each consume's window update re-opens it.
func TestWindowStallResume(t *testing.T) {
	eng := sim.New()
	_, b, fa := pair(t, eng, sim.Microsecond, Params{MSS: 100, Window: 200, RTO: sim.Millisecond})
	fb := b.flows[1]
	fb.Manual = true
	msg := make([]byte, 500)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	fa.Write(msg)
	eng.RunUntil(500 * sim.Microsecond) // well short of the RTO probe
	if n := len(fb.rcvQ); n != 200 {
		t.Fatalf("receiver buffered %d bytes, want the full 200-byte window", n)
	}
	if q := len(fa.sndBuf); q != 300 {
		t.Fatalf("sender queue %d, want 300 stalled behind the closed window", q)
	}
	var got []byte
	got = append(got, consume(fb, 200)...)
	eng.RunUntil(900 * sim.Microsecond)
	if n := len(fb.rcvQ); n != 200 {
		t.Fatalf("after consume, receiver buffered %d, want next 200-byte window", n)
	}
	got = append(got, consume(fb, 200)...)
	eng.RunUntil(999 * sim.Microsecond)
	got = append(got, consume(fb, 200)...)
	if !bytes.Equal(got, msg) {
		t.Fatalf("stall/resume corrupted the stream: %d bytes, want %d", len(got), len(msg))
	}
	if len(fa.sndBuf) != 0 {
		t.Fatalf("sender still holds %d bytes", len(fa.sndBuf))
	}
	if fa.S.Retransmits != 0 {
		t.Fatalf("window stall must not look like loss: %d retransmits", fa.S.Retransmits)
	}
}

// TestZeroWindowProbeRecoversLostWindowUpdate drops the receiver's
// window-update ACK; the sender's probe must unstick the flow.
func TestZeroWindowProbeRecoversLostWindowUpdate(t *testing.T) {
	eng := sim.New()
	pl := fault.NewPlane(eng, 9)
	_, b, fa := pair(t, eng, sim.Microsecond, Params{MSS: 100, Window: 100, RTO: 100 * sim.Microsecond})
	fb := b.flows[1]
	fb.Manual = true
	fa.Write(make([]byte, 300))
	eng.RunUntil(50 * sim.Microsecond)
	if len(fb.rcvQ) != 100 {
		t.Fatalf("readable %d, want 100", len(fb.rcvQ))
	}
	// Drop exactly the next segment: the window-update ACK from consume.
	pl.Add(fault.SiteConfig{Site: fault.SiteNetSegment, Every: 1, Limit: 1, Drop: true})
	consume(fb, 100)
	eng.Drain(100000)
	total := 100
	for {
		p := consume(fb, 1<<20)
		if len(p) == 0 {
			break
		}
		total += len(p)
		eng.Drain(100000)
	}
	if total != 300 {
		t.Fatalf("delivered %d bytes, want 300 (probe must recover the lost window update)", total)
	}
	if fa.S.Retransmits == 0 {
		t.Fatal("expected at least one zero-window probe")
	}
}

func TestNonSegmentPacketsIgnored(t *testing.T) {
	eng := sim.New()
	ca, _ := NewPipe(eng, 0)
	st := New(eng, ca, Params{})
	st.Deliver([]byte("raw packet, no magic"))
	st.Deliver([]byte{magic0}) // too short for the magic check
	if st.SegsRecv != 0 || st.Malformed != 0 {
		t.Fatal("non-segment packets must be invisible to the stack")
	}
	// Magic present but header lies about the payload length.
	bad := Segment{Flags: flagDATA, FlowID: 1, Payload: []byte("xx")}.Append(nil)
	st.Deliver(bad[:len(bad)-1])
	if st.Malformed != 1 {
		t.Fatal("truncated segment must count as malformed")
	}
}

// TestStackDeterminism replays the same lossy, reordering transfer twice
// and requires identical counters — the transport is a pure function of
// the seed.
func TestStackDeterminism(t *testing.T) {
	run := func() (Stats, Stats, []byte) {
		eng := sim.New()
		pl := fault.NewPlane(eng, 77)
		pl.Add(fault.SiteConfig{Site: fault.SiteNetSegment, Rate: 0.2, Drop: true})
		a, b, fa := pair(t, eng, 2*sim.Microsecond, Params{MSS: 256, RTO: 150 * sim.Microsecond})
		var got []byte
		b.flows[1].OnData = func(p []byte) { got = append(got, p...) }
		msg := make([]byte, 4096)
		for i := range msg {
			msg[i] = byte(i ^ (i >> 3))
		}
		fa.Write(msg)
		eng.Drain(1 << 20)
		if !bytes.Equal(got, msg) {
			t.Fatal("lossy transfer did not converge")
		}
		return a.Stats, b.Stats, got
	}
	a1, b1, g1 := run()
	a2, b2, g2 := run()
	if a1 != a2 || b1 != b2 || !bytes.Equal(g1, g2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a1, a2)
	}
}

// consume drains up to n in-order bytes from a Manual flow's receive
// queue, returning what it took and re-advertising the opened window so
// a stalled sender resumes.
func consume(f *Flow, n int) []byte {
	if n <= 0 || len(f.rcvQ) == 0 {
		return nil
	}
	if n > len(f.rcvQ) {
		n = len(f.rcvQ)
	}
	out := f.rcvQ[:n:n]
	f.rcvQ = append([]byte(nil), f.rcvQ[n:]...)
	f.sendCtl(flagACK)
	return out
}

// One 32-byte request and its echoed response over an established flow
// on NewPipe allocate nothing once the first exchange has grown the
// stacks' and links' recycled buffers and the engine's event pool: each
// stack encodes into its own buffers, each link copies into its own,
// payloads reach OnData borrowed, and the timers are typed events.
func TestExchangeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const (
		allocBudget = 0 // mallocs per exchange; 14 before packets were borrowed
		byteBudget  = 0 // bytes per exchange; 528 before
	)
	eng := sim.New()
	_, b, fa := pair(t, eng, 2*sim.Microsecond, Params{})
	b.flows[1].OnData = b.flows[1].Write
	got := 0
	fa.OnData = func(p []byte) { got += len(p) }
	msg := make([]byte, 32)
	exchange := func() {
		fa.Write(msg)
		eng.RunUntil(eng.Now() + 20*sim.Microsecond)
	}
	exchange() // warm up buffers and the event pool
	const reps = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	if got != (reps+1)*len(msg) {
		t.Fatalf("%d of %d echoed bytes arrived", got, (reps+1)*len(msg))
	}
	allocs := float64(after.Mallocs-before.Mallocs) / reps
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / reps
	t.Logf("%.2f mallocs, %.0f B per exchange", allocs, bytes)
	if allocs > allocBudget || bytes > byteBudget {
		t.Errorf("%.2f mallocs and %.0f B per exchange, budget %d and %d", allocs, bytes, allocBudget, byteBudget)
	}
}

// borrowEnd wraps a wire end so that every packet lent through it is
// overwritten as soon as the call that lent it returns: a sent packet
// once Send returns, and an arriving one once the receiver returns. A
// hop or stack that kept a borrowed packet instead of copying it would
// then deliver or read the scribble.
type borrowEnd struct{ *netsim.WireEnd }

func (b borrowEnd) Send(pkt []byte, done func()) {
	b.WireEnd.Send(pkt, done)
	scribble(pkt)
}

func (b borrowEnd) Receive(pkt []byte) {
	b.WireEnd.Receive(pkt)
	scribble(pkt)
}

func scribble(p []byte) {
	for i := range p {
		p[i] = 0xEE
	}
}

// lossyPath drops and delays segments from a seeded stream; the delays
// vary, so delayed segments also overtake one another.
type lossyPath struct{ rng *rand.Rand }

func (l lossyPath) InjectFault(string) sim.FaultOutcome {
	switch u := l.rng.Float64(); {
	case u < 0.1:
		return sim.FaultOutcome{Drop: true}
	case u < 0.4:
		return sim.FaultOutcome{Delay: sim.Time(1+l.rng.Intn(40)) * sim.Microsecond}
	}
	return sim.FaultOutcome{}
}

// A byte stream and its echo cross a NewPipe whose ends scribble over
// every packet once its loan ends, under segment loss and delay: both
// must arrive unchanged.
func TestBorrowedPacketsSurviveLossAndDelay(t *testing.T) {
	eng := sim.New()
	ca, cb := NewPipe(eng, 2*sim.Microsecond)
	ea, eb := borrowEnd{ca}, borrowEnd{cb}
	ca.Dst, cb.Dst = eb, ea
	a, b, fa := pairOver(t, eng, ea, eb, Params{MSS: 256, RTO: 100 * sim.Microsecond})
	eng.SetFaults(lossyPath{sim.NewRand(7)})

	msg := make([]byte, 20_000)
	for i := range msg {
		msg[i] = byte(i*31 + i>>8)
	}
	var got, echoed []byte
	fb := b.flows[1]
	fb.OnData = func(p []byte) {
		got = append(got, p...)
		fb.Write(p)
	}
	fa.OnData = func(p []byte) { echoed = append(echoed, p...) }
	fa.Write(msg)
	eng.Drain(1_000_000)
	if !bytes.Equal(got, msg) || !bytes.Equal(echoed, msg) {
		t.Fatalf("delivered %d and echoed %d of %d bytes, or corrupted them", len(got), len(echoed), len(msg))
	}
	if a.Dropped+b.Dropped == 0 || a.Retransmits == 0 || b.OutOfOrder == 0 {
		t.Fatalf("path lost %d segments, sender resent %d, receiver reordered %d: want all three nonzero",
			a.Dropped+b.Dropped, a.Retransmits, b.OutOfOrder)
	}
}
