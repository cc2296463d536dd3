package netsim

import (
	"bytes"
	"testing"

	"svtsim/internal/sim"
)

type sink struct {
	pkts  [][]byte
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(pkt []byte) {
	s.pkts = append(s.pkts, pkt)
	s.times = append(s.times, s.eng.Now())
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 5*sim.Microsecond, 10e9) // 10 Gb/s
	dst := &sink{eng: eng}
	// 1250 bytes = 10000 bits = 1 µs of wire time at 10 Gb/s.
	l.Send(make([]byte, 1250), dst)
	l.Send(make([]byte, 1250), dst)
	eng.Drain(100)
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	if dst.times[0] != 6*sim.Microsecond {
		t.Fatalf("first delivery at %v, want 6us (1us tx + 5us latency)", dst.times[0])
	}
	// Serialization: the second packet waits for the wire.
	if dst.times[1] != 7*sim.Microsecond {
		t.Fatalf("second delivery at %v, want 7us", dst.times[1])
	}
	if n := len(dst.pkts[0]) + len(dst.pkts[1]); n != 2500 {
		t.Fatalf("delivered %d bytes, want 2500", n)
	}
}

// A link hands the receiver the sender's packet itself: by the Conduit
// ownership rule nobody writes to it after Send, so no hop copies it.
func TestLinkPassesPacketByReference(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 0, 10e9)
	dst := &sink{eng: eng}
	buf := []byte{1, 2, 3}
	l.Send(buf, dst)
	eng.Drain(10)
	if len(dst.pkts) != 1 || &dst.pkts[0][0] != &buf[0] {
		t.Fatal("link must deliver the sent slice, not a copy")
	}
}

func TestWireEnd(t *testing.T) {
	eng := sim.New()
	dst := &sink{eng: eng}
	w := &WireEnd{Out: NewLink(eng, 2*sim.Microsecond, 0), Dst: dst, Think: 3 * sim.Microsecond}
	doneAt := sim.Time(-1)
	w.Send([]byte("req"), func() { doneAt = eng.Now() })
	eng.Drain(100)
	if doneAt != 0 {
		t.Fatalf("local transmit done at %v, want 0", doneAt)
	}
	if len(dst.pkts) != 1 || dst.times[0] != 5*sim.Microsecond {
		t.Fatalf("delivered %d packets (first at %v), want 1 at think + latency = 5us", len(dst.pkts), dst.times)
	}
	var got [][]byte
	w.Receive([]byte("dropped: no receiver yet"))
	w.SetReceiver(func(pkt []byte) { got = append(got, pkt) })
	w.Receive([]byte("resp"))
	if len(got) != 1 || string(got[0]) != "resp" {
		t.Fatalf("receiver got %q", got)
	}
}

func TestNICTransport(t *testing.T) {
	eng := sim.New()
	peer := &sink{eng: eng}
	out := NewLink(eng, 2*sim.Microsecond, 10e9)
	nic := NewNIC(eng, out)
	nic.Peer = peer

	doneAt := sim.Time(-1)
	nic.Send([]byte("hello"), func() { doneAt = eng.Now() })
	eng.Drain(100)
	if len(peer.pkts) != 1 || !bytes.Equal(peer.pkts[0], []byte("hello")) {
		t.Fatal("peer did not get the frame")
	}
	if doneAt < nicDMADelay {
		t.Fatalf("tx done at %v, before DMA completes", doneAt)
	}
	// Inbound: packets reach the registered receiver after DMA.
	var got [][]byte
	nic.SetReceiver(func(pkt []byte) { got = append(got, pkt) })
	nic.Receive([]byte("resp"))
	eng.Drain(100)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("resp")) {
		t.Fatalf("receiver got %q, want one frame", got)
	}
}

func TestEchoPeerEchoesContent(t *testing.T) {
	eng := sim.New()
	back := NewLink(eng, sim.Microsecond, 10e9)
	dst := &sink{eng: eng}
	p := &EchoPeer{Eng: eng, Back: back, Dst: dst, ServiceTime: 3 * sim.Microsecond}
	p.Receive([]byte("ping"))
	eng.Drain(100)
	if len(dst.pkts) != 1 || !bytes.Equal(dst.pkts[0], []byte("ping")) {
		t.Fatal("echo must return the request bytes")
	}
	if dst.times[0] < 4*sim.Microsecond {
		t.Fatalf("response at %v, want >= service + latency", dst.times[0])
	}
	p2 := &EchoPeer{Eng: eng, Back: back, Dst: dst, RespSize: 7}
	p2.Receive([]byte("x"))
	eng.Drain(100)
	if len(dst.pkts[1]) != 7 {
		t.Fatal("fixed-size response wrong")
	}
}

// TestEchoPeerSerializesBatchedSegments is the two-segment golden: a
// batched ring kick delivers two requests at the same instant, and the
// single-threaded peer must charge ServiceTime per segment, not once per
// kick. The first response leaves service at t+ServiceTime, the second
// queues behind it and leaves at t+2*ServiceTime.
func TestEchoPeerSerializesBatchedSegments(t *testing.T) {
	eng := sim.New()
	back := NewLink(eng, sim.Microsecond, 10e9)
	dst := &sink{eng: eng}
	p := &EchoPeer{Eng: eng, Back: back, Dst: dst, ServiceTime: 3 * sim.Microsecond, RespSize: 1}
	// Both segments arrive on the same kick, at t=0.
	p.Receive([]byte("a"))
	p.Receive([]byte("b"))
	eng.Drain(100)
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d responses, want 2", len(dst.pkts))
	}
	// Response i leaves service at (i+1)*ServiceTime and crosses the
	// 1 µs link (1-byte wire time is sub-ns at 10 Gb/s and truncates to
	// zero).
	if want := 4 * sim.Microsecond; dst.times[0] != want {
		t.Fatalf("first response at %v, want %v", dst.times[0], want)
	}
	if want := 7 * sim.Microsecond; dst.times[1] != want {
		t.Fatalf("second response at %v, want %v (service serialized per segment)", dst.times[1], want)
	}
}

func TestAckPeerGranularity(t *testing.T) {
	eng := sim.New()
	back := NewLink(eng, 0, 10e9)
	dst := &sink{eng: eng}
	p := &AckPeer{Back: back, Dst: dst, AckEvery: 1000, AckSize: 10}
	p.Receive(make([]byte, 900)) // below threshold: no ack
	eng.Drain(100)
	if len(dst.pkts) != 0 {
		t.Fatal("ack sent too early")
	}
	p.Receive(make([]byte, 2200)) // 3100 total: 3 acks, 100 residue
	eng.Drain(100)
	if len(dst.pkts) != 3 {
		t.Fatalf("acks = %d, want 3", len(dst.pkts))
	}
	if p.Received != 3100 {
		t.Fatalf("received = %d", p.Received)
	}
}

func TestOpenLoopClient(t *testing.T) {
	eng := sim.New()
	back := NewLink(eng, sim.Microsecond, 10e9)
	// Echo server loops requests straight back.
	sent := 0
	c := &OpenLoopClient{Eng: eng, Back: back, Payload: func() []byte { sent++; return make([]byte, 8) }}
	echo := &EchoPeer{Eng: eng, Back: back, Dst: c, ServiceTime: 2 * sim.Microsecond}
	c.Dst = echo
	rng := sim.NewRand(3)
	c.Start(100000, 2*sim.Millisecond, rng.Float64)
	eng.Drain(100000)
	if sent == 0 || len(c.Lat) == 0 {
		t.Fatalf("sent=%d responses=%d", sent, len(c.Lat))
	}
	if len(c.Lat) > sent {
		t.Fatal("more responses than requests")
	}
	// ~100k req/s for 2 ms is ~200 requests; allow wide slack.
	if sent < 100 || sent > 400 {
		t.Fatalf("sent = %d, want ≈200", sent)
	}
	for _, l := range c.Lat {
		if l <= 0 {
			t.Fatal("non-positive latency recorded")
		}
	}
}

func TestOpenLoopClientPayload(t *testing.T) {
	eng := sim.New()
	back := NewLink(eng, 0, 10e9)
	dst := &sink{eng: eng}
	c := &OpenLoopClient{Eng: eng, Back: back, Dst: dst, Payload: func() []byte { return []byte{0xAB, 0xCD} }}
	c.Start(1e6, 100*sim.Microsecond, sim.NewRand(1).Float64)
	eng.Drain(10000)
	if len(dst.pkts) == 0 || dst.pkts[0][0] != 0xAB {
		t.Fatal("payload generator not used")
	}
}
