package main

import (
	"errors"
	"fmt"
	"time"

	"svtsim/internal/ept"
	"svtsim/internal/exp"
	"svtsim/internal/machine"
	"svtsim/internal/mem"
	"svtsim/internal/netstack"
	"svtsim/internal/ports"
	"svtsim/internal/server"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// micro times reps calls of fn and records the time per call, divided
// by unit (1 for ns, 1000 for us), as one sample of name.
func (r *runner) micro(name string, unit float64, reps int, fn func()) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	per := float64(time.Since(start).Nanoseconds()) / float64(reps) / unit
	r.layerSamples[name] = append(r.layerSamples[name], per)
}

// microAllocs is micro plus the heap allocations per call.
func (r *runner) microAllocs(name, allocs string, unit float64, reps int, fn func()) {
	a := memSnap()
	r.micro(name, unit, reps, fn)
	b := memSnap()
	r.layerSamples[allocs] = append(r.layerSamples[allocs], float64(b.Mallocs-a.Mallocs)/float64(reps))
}

// machineLayers repeats the EPT composition and walk on a finished cell's
// own page tables. The vmcs transforms are not repeated here: outside
// the x86 stack only tests may import internal/vmcs (the port-isolation
// gate in CI), so the vmcs layer shows only as prof.vmcs.self_frac.
func (r *runner) machineLayers(m *machine.Machine) error {
	var err error
	r.microAllocs("ept.compose_us", "ept.compose_allocs", 1e3, 2, func() {
		if _, e := ept.Compose("ept02", m.Ept12, m.Ept01); e != nil {
			err = e
		}
	})
	if m.Ept02 != nil {
		gpa := uint64(0)
		r.micro("ept.translate_ns", 1, 1000, func() {
			if _, e := m.Ept02.Translate(gpa, ept.PermR); e != nil {
				err = e
			}
			gpa = (gpa + 7*mem.PageSize + 8) % machine.L2RAMSize
		})
	}
	return err
}

// standaloneLayers repeats the layer calls that need no machine: each
// port's interrupt controller, a virtqueue round trip, a netstack
// request/response exchange, the engine's schedule and sharded replay,
// and svtsimd's request digest and cache lookup for this cell's request.
func (r *runner) standaloneLayers(c cell) error {
	eng := sim.New()
	for _, name := range cpuidPorts {
		p := ports.Get(name)
		r.micro("irq."+name+".deliver_ack_ns", 1, 200, func() {
			l := p.NewIRQ(0, eng)
			l.Deliver(ports.VecVirtioNet)
			if v, ok := l.PendingVector(); ok {
				l.Ack(v)
			}
		})
	}
	var errs []error
	errs = append(errs, r.virtioLayer(), r.netstackLayer())

	fn := func() {}
	r.micro("sim.schedule_ns", 1, 2000, func() {
		eng.After(1, fn)
		eng.Step()
	})
	for _, shards := range []int{1, 2} {
		spec := exp.DefaultFleetReplaySpec()
		spec.Dur = 500 * sim.Microsecond
		spec.Shards = shards
		name := fmt.Sprintf("sim.shard%d_ns_per_event", shards)
		start := time.Now()
		res := exp.FleetReplay(spec)
		r.layerSamples[name] = append(r.layerSamples[name], float64(time.Since(start).Nanoseconds())/float64(res.Events))
	}

	req := requestFor(c)
	var digest string
	r.micro("server.digest_us", 1e3, 20, func() {
		q := *req
		q.Modes = append([]string(nil), req.Modes...)
		if err := q.Canonicalize(); err != nil {
			errs = append(errs, err)
		}
		digest = q.Digest()
	})
	r.cache.Put(digest, []byte(c.String()), nil)
	r.micro("server.cache_get_ns", 1, 1000, func() {
		if r.cache.Get(digest) == nil {
			errs = append(errs, errors.New("cache lost a fresh entry"))
		}
	})
	return errors.Join(errs...)
}

// virtioLayer times a driver post, device pop, device completion and
// driver reap over one virtqueue in EPT-translated memory.
func (r *runner) virtioLayer() error {
	t := ept.New("bench")
	if err := t.Map(0, 0, 1<<20, ept.PermRWX); err != nil {
		return err
	}
	view := ept.NewView(mem.New(1<<20), t)
	l := virtio.NewLayout(0x1000, 256)
	drv, err := virtio.NewQueue(l, view, true)
	if err != nil {
		return err
	}
	dev, err := virtio.NewQueue(l, view, false)
	if err != nil {
		return err
	}
	chain := []virtio.Buf{{GPA: 0x80000, Len: 64}}
	var errs []error
	r.micro("virtio.roundtrip_ns", 1, 500, func() {
		head, err := drv.Post(chain)
		errs = append(errs, err)
		_, _, ok, err := dev.PopAvail()
		if !ok && err == nil {
			err = errors.New("virtio: posted chain not available")
		}
		errs = append(errs, err, dev.PushUsed(head, 64))
		_, _, ok, err = drv.PopUsed()
		if !ok && err == nil {
			err = errors.New("virtio: completed chain not reaped")
		}
		errs = append(errs, err)
	})
	return errors.Join(errs...)
}

// netstackLayer times a 32-byte request and its echoed response over
// one established flow between two stacks on an in-engine pipe.
func (r *runner) netstackLayer() error {
	eng := sim.New()
	ca, cb := netstack.NewPipe(eng, 2*sim.Microsecond)
	a := netstack.New(eng, ca, netstack.Params{})
	b := netstack.New(eng, cb, netstack.Params{})
	b.OnFlow = func(f *netstack.Flow) { f.OnData = f.Write }
	fa := a.Open(1)
	got := 0
	fa.OnData = func(p []byte) { got += len(p) }
	eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	if !fa.Established() {
		return errors.New("netstack: handshake did not complete")
	}
	msg := make([]byte, 32)
	const reps = 50
	r.micro("netstack.exchange_us", 1e3, reps, func() {
		fa.Write(msg)
		eng.RunUntil(eng.Now() + 20*sim.Microsecond)
	})
	if got != reps*len(msg) {
		return fmt.Errorf("netstack: %d of %d echoed bytes arrived", got, reps*len(msg))
	}
	return nil
}

// layerCalls repeats the standalone layer calls after every eighth cell
// of the traced pass.
func (r *runner) layerCalls(n int, c cell) {
	if r.spans == nil || n%8 != 0 {
		return
	}
	r.labelled("layer-call", func() {
		if err := r.standaloneLayers(c); err != nil {
			r.fail(c.idx, c.String()+" (layer calls)", err)
		}
	})
}

// requestFor is the svtsimd request that asks for a cell's experiment.
func requestFor(c cell) *server.Request {
	switch c.kind {
	case "job":
		return c.req
	case "cpuid":
		return &server.Request{Kind: server.KindWorkload, Workload: "cpuid", Modes: []string{c.mode.String()}, Port: c.port, N: c.n}
	case "netrr", "snapshot":
		return &server.Request{Kind: server.KindWorkload, Workload: "netrr", Modes: []string{c.mode.String()}, N: c.n}
	case "randrd", "fio":
		return &server.Request{Kind: server.KindWorkload, Workload: "diskrd", Modes: []string{c.mode.String()}, N: c.n}
	case "randwr":
		return &server.Request{Kind: server.KindWorkload, Workload: "diskwr", Modes: []string{c.mode.String()}, N: c.n}
	case "density":
		return &server.Request{Kind: server.KindDensity, VMs: c.k}
	case "lb":
		return &server.Request{Kind: server.KindLB, VMs: c.k, Scenario: c.scenario, Seed: c.seed}
	case "storm":
		return &server.Request{Kind: server.KindStorm, VMs: c.k, Storms: c.storms, Seed: c.seed}
	default: // replay
		return &server.Request{Kind: server.KindFleet, DurMs: int(replayDur / sim.Millisecond), Shards: c.shards}
	}
}
