package netsim

import (
	"math"

	"svtsim/internal/sim"
)

// EchoPeer models the remote netperf TCP_RR endpoint: every received
// request is answered with a response of RespSize bytes after
// ServiceTime. It also serves as the remote memcached/mutilate side when
// the guest is the server (responses flow back on the return link).
type EchoPeer struct {
	Eng         *sim.Engine
	Back        *Link // peer -> NIC
	Dst         Endpoint
	ServiceTime sim.Time
	RespSize    int

	// busyUntil serializes the peer's single service thread: a batch of
	// requests arriving on one ring kick is charged ServiceTime each, not
	// ServiceTime once for the whole batch.
	busyUntil sim.Time
	// serving holds the responses in service; they finish at busyUntil,
	// which only moves forward, so they leave in arrival order.
	serving sim.FIFO[[]byte]
	bufs    Buffers
}

// Receive implements Endpoint. With RespSize <= 0 the peer sends the
// request itself back (useful for end-to-end integrity checks);
// otherwise it responds with RespSize zero bytes. Requests queue behind
// the peer's single service thread: each occupies it for ServiceTime, so
// two segments delivered at the same instant (a batched kick) finish at
// t+ServiceTime and t+2*ServiceTime, as a real single-threaded endpoint
// would.
func (p *EchoPeer) Receive(pkt []byte) {
	var resp []byte
	if p.RespSize > 0 {
		resp = p.bufs.Get(p.RespSize)
		clear(resp)
	} else {
		resp = p.bufs.Copy(pkt)
	}
	start := p.Eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + p.ServiceTime
	p.serving.At(p.Eng, p.busyUntil, p, resp)
}

// Fire implements sim.Handler: the oldest response leaves service and
// goes on the return link.
func (p *EchoPeer) Fire(arg uint64) {
	resp := p.serving.Pop(arg, "netsim echo peer")
	p.Back.Send(resp, p.Dst)
	p.bufs.Put(resp)
}

// AckPeer models the remote end of a netperf TCP_STREAM: it acknowledges
// every AckEvery bytes with a small ACK packet, which is what closes the
// sender's window.
type AckPeer struct {
	Back     *Link
	Dst      Endpoint
	AckEvery int
	AckSize  int

	Received   uint64
	unackedLen int
	ack        []byte // AckSize zero bytes, which Send copies
}

// Receive implements Endpoint.
func (p *AckPeer) Receive(pkt []byte) {
	p.Received += uint64(len(pkt))
	p.unackedLen += len(pkt)
	for p.unackedLen >= p.AckEvery {
		p.unackedLen -= p.AckEvery
		if len(p.ack) != p.AckSize {
			p.ack = make([]byte, p.AckSize)
		}
		p.Back.Send(p.ack, p.Dst)
	}
}

// OpenLoopClient models mutilate-style load generation: requests arrive
// at the guest server with exponential inter-arrival times at a target
// rate, and the client records the full round-trip latency of each
// response (matching by FIFO order, as on one TCP connection).
type OpenLoopClient struct {
	Eng     *sim.Engine
	Back    *Link
	Dst     Endpoint
	Payload func() []byte // generates each request's bytes

	inflight []sim.Time // send timestamps, FIFO
	Lat      []float64  // response latencies in microseconds
}

// Start begins issuing requests at rate req/s until stopAt, using the
// provided uniform random source for exponential spacing.
func (c *OpenLoopClient) Start(rate float64, stopAt sim.Time, rnd func() float64) {
	if rate <= 0 {
		return
	}
	var issue func()
	mean := float64(sim.Second) / rate
	issue = func() {
		if c.Eng.Now() >= stopAt {
			return
		}
		c.send()
		gap := sim.Time(expSample(rnd, mean))
		if gap < 1 {
			gap = 1
		}
		c.Eng.After(gap, issue)
	}
	c.Eng.After(sim.Time(expSample(rnd, mean)), issue)
}

func expSample(rnd func() float64, mean float64) float64 {
	u := rnd()
	if u <= 0 {
		u = 1e-12
	}
	// Inverse-CDF exponential sample.
	return -mean * ln(u)
}

func ln(x float64) float64 { return math.Log(x) }

func (c *OpenLoopClient) send() {
	c.inflight = append(c.inflight, c.Eng.Now())
	c.Back.Send(c.Payload(), c.Dst)
}

// Receive implements Endpoint: a response closes the oldest request.
func (c *OpenLoopClient) Receive(pkt []byte) {
	if len(c.inflight) == 0 {
		return
	}
	t0 := c.inflight[0]
	c.inflight = c.inflight[1:]
	c.Lat = append(c.Lat, (c.Eng.Now() - t0).Microseconds())
}
