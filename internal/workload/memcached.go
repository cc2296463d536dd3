package workload

import (
	"encoding/binary"
	"math/rand"

	"svtsim/internal/guest"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
)

// ETC models Facebook's ETC key-value workload (Atikoglu et al.,
// SIGMETRICS'12) as used by mutilate: small keys, mostly-small values
// with a heavy tail, and a GET-dominated mix.
type ETC struct {
	rng *rand.Rand
}

// NewETC builds a generator with its own random stream.
func NewETC(rng *rand.Rand) *ETC { return &ETC{rng: rng} }

// ValueSize draws a value length: most values are tiny, with a heavy
// tail up to a few KB.
func (e *ETC) ValueSize() int {
	p := e.rng.Float64()
	switch {
	case p < 0.40:
		return 2 + e.rng.Intn(9) // 40%: 2–10 B
	case p < 0.90:
		return 16 + e.rng.Intn(485) // 50%: 16–500 B
	default:
		return 500 + e.rng.Intn(3500) // 10%: up to ~4 KB
	}
}

// IsGet draws the operation type (ETC is GET-dominated).
func (e *ETC) IsGet() bool { return e.rng.Float64() < 0.97 }

// MemcachedServer runs a memcached-like server inside the guest: it
// serves requests arriving on the network until Duration elapses,
// spending per-request CPU on parsing, hashing and response assembly.
type MemcachedServer struct {
	Duration sim.Time

	// Per-request CPU costs.
	ParseCPU  sim.Time
	LookupCPU sim.Time
	StoreCPU  sim.Time

	Served uint64
	store  map[uint64][]byte
}

// DefaultMemcached returns a server with realistic per-op CPU costs.
func DefaultMemcached(d sim.Time) *MemcachedServer {
	return &MemcachedServer{
		Duration:  d,
		ParseCPU:  1200,
		LookupCPU: 900,
		StoreCPU:  1600,
	}
}

// Request wire format: [8B key hash][1B op][2B value size] — the
// simulated client encodes what the real protocol parses.
const memcachedReqSize = 11

// EncodeMemcachedReq builds a request packet.
func EncodeMemcachedReq(keyHash uint64, get bool, valueSize int) []byte {
	p := make([]byte, memcachedReqSize)
	binary.LittleEndian.PutUint64(p[0:8], keyHash)
	if get {
		p[8] = 1
	}
	binary.LittleEndian.PutUint16(p[9:11], uint16(valueSize))
	return p
}

// Run is the guest body: an event-driven server loop.
func (s *MemcachedServer) Run(env *guest.Env) {
	s.store = make(map[uint64][]byte)
	// pending holds copies of the requests not yet served: a received
	// packet is borrowed for the call.
	var pending [][]byte
	var reqs netsim.Buffers
	var resp []byte
	env.Net.OnReceive = func(pkt []byte) {
		pending = append(pending, reqs.Copy(pkt))
		SMPWake(env)
	}
	deadline := env.Now() + s.Duration
	for env.Now() < deadline {
		if len(pending) == 0 {
			// Idle: arm the tick so the server wakes at the deadline even if
			// no more requests arrive (and pays the timer-virtualization
			// exits a periodic tick costs).
			env.Timer.Arm(deadline)
			env.WaitFor(func() bool { return len(pending) > 0 || env.Now() >= deadline })
		}
		// Serving computes, which runs interrupt handlers that may
		// append more requests; the loop serves those too.
		for i := 0; i < len(pending); i++ {
			req := pending[i]
			if len(req) < memcachedReqSize {
				reqs.Put(req)
				continue
			}
			key := binary.LittleEndian.Uint64(req[0:8])
			get := req[8] == 1
			vs := int(binary.LittleEndian.Uint16(req[9:11]))
			reqs.Put(req)
			env.Compute(s.ParseCPU)
			if get {
				env.Compute(s.LookupCPU)
				v, ok := s.store[key]
				if ok {
					vs = len(v)
				}
				// A cold miss is served as if filled: vs zero bytes.
				resp = grow(resp, 1+vs)
				resp[0] = 1
				n := copy(resp[1:], v)
				clear(resp[1+n:])
			} else {
				env.Compute(s.StoreCPU)
				s.store[key] = make([]byte, vs)
				resp = grow(resp, 1)
				resp[0] = 2
			}
			// Send copies the response into guest RAM, so the next
			// request reuses its buffer.
			env.Net.Send(resp, nil)
			s.Served++
		}
		pending = pending[:0]
	}
}

// grow returns b resized to n bytes, reallocating only when n exceeds
// its capacity.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
