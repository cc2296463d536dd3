package ports_test

import (
	"reflect"
	"testing"

	"svtsim/internal/fault"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// irqOrder is each port's documented priority rule as the reference
// models it: which end of the pending set PendingVector returns, and how
// many of the highest-priority pending vectors are acknowledgeable (all
// 256 on x86's IRR, the 4 list registers on the vGIC).
var irqOrder = map[string]struct {
	lowFirst bool
	ackable  int
}{
	"x86":     {lowFirst: false, ackable: 256},
	"armlike": {lowFirst: true, ackable: 4},
}

// refSite is one Every-scheduled fault site as the reference predicts
// it: no RNG, so the consult count alone says which consults fire.
type refSite struct {
	every, after, consults uint64
	drop                   bool
	delay                  sim.Time
}

// fire reports whether the next consult of the site faults.
func (s *refSite) fire() bool {
	s.consults++
	return s.every > 0 && s.consults > s.after && (s.consults-s.after-1)%s.every == 0
}

// refEvent is an engine event the reference expects: the deadline timer
// (timer) or a delayed re-delivery of vec.
type refEvent struct {
	at    sim.Time
	seq   uint64
	vec   int
	timer bool
}

// irqRef is the reference model of one interrupt controller on its own
// engine: the pending set, the tallies, the armed deadline and the
// events the controller has scheduled, dispatched in (time, sequence)
// order as the engine does.
type irqRef struct {
	lowFirst bool
	ackable  int
	pending  [256]bool
	n        int

	delivered, dropped, delayed uint64

	now      sim.Time
	seq      uint64
	events   []refEvent
	deadline sim.Time
	irq, ipi refSite
}

func (r *irqRef) schedule(at sim.Time, vec int, timer bool) {
	if at < r.now {
		at = r.now
	}
	r.events = append(r.events, refEvent{at: at, seq: r.seq, vec: vec, timer: timer})
	r.seq++
}

func (r *irqRef) cancelTimer() {
	for i, ev := range r.events {
		if ev.timer {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

func (r *irqRef) inFlight() bool {
	for _, ev := range r.events {
		if !ev.timer {
			return true
		}
	}
	return false
}

func (r *irqRef) deliver(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	site := &r.irq
	if vec == ports.VecIPI {
		site = &r.ipi
	}
	if site.fire() {
		if site.drop {
			r.dropped++
			return
		}
		r.delayed++
		r.schedule(r.now+site.delay, vec, false)
		return
	}
	r.deliverNow(vec)
}

func (r *irqRef) deliverNow(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	if !r.pending[vec] {
		r.pending[vec] = true
		r.n++
	}
	r.delivered++
}

func (r *irqRef) top() (int, bool) {
	for i := 0; i < 256; i++ {
		v := i
		if !r.lowFirst {
			v = 255 - i
		}
		if r.pending[v] {
			return v, true
		}
	}
	return 0, false
}

func (r *irqRef) ack(vec int) bool {
	if vec < 0 || vec > 255 || !r.pending[vec] {
		return false
	}
	ahead := 0
	for v := range r.pending {
		if r.pending[v] && (r.lowFirst && v < vec || !r.lowFirst && v > vec) {
			ahead++
		}
	}
	if ahead >= r.ackable {
		return false
	}
	r.pending[vec] = false
	r.n--
	return true
}

func (r *irqRef) setDeadline(t sim.Time) {
	r.cancelTimer()
	r.deadline = t
	if t != 0 {
		r.schedule(t, ports.VecTimer, true)
	}
}

// runUntil dispatches every expected event due by t, earliest (time,
// sequence) first, and leaves the clock at t.
func (r *irqRef) runUntil(t sim.Time) {
	for len(r.events) > 0 {
		next := 0
		for i, ev := range r.events {
			if ev.at < r.events[next].at || ev.at == r.events[next].at && ev.seq < r.events[next].seq {
				next = i
			}
		}
		ev := r.events[next]
		if ev.at > t {
			break
		}
		r.events = append(r.events[:next], r.events[next+1:]...)
		if ev.at > r.now {
			r.now = ev.at
		}
		if ev.timer {
			r.deadline = 0
			r.deliver(ports.VecTimer)
		} else {
			r.deliverNow(ev.vec)
		}
	}
	if r.now < t {
		r.now = t
	}
}

// step mirrors sim.Engine.Step: jump to the earliest event and dispatch
// everything due then.
func (r *irqRef) step() {
	if len(r.events) == 0 {
		return
	}
	t := r.events[0].at
	for _, ev := range r.events {
		t = min(t, ev.at)
	}
	r.runUntil(max(t, r.now))
}

// irqVector maps two fuzz bytes to a vector: mostly the canonical
// vectors (so deliveries collide and the IPI site is consulted), else
// any vector, sometimes one out of range.
func irqVector(a, b byte) int {
	switch {
	case b&0x80 != 0:
		return []int{-1, 256, 300}[int(a)%3]
	case b&0x40 != 0:
		return int(a)
	default:
		return []int{ports.VecTimer, ports.VecVirtioNet, ports.VecVirtioBlk,
			ports.VecIPI, ports.VecSpurious, 0x10, 0x31, 0x87}[int(a)%8]
	}
}

// refSiteFrom decodes one fault site from two bytes: every 0 leaves the
// site unarmed; the high bit of b picks drop over delay.
func refSiteFrom(a, b byte) refSite {
	return refSite{
		every: uint64(a % 5),
		after: uint64(b % 4),
		drop:  b&0x80 != 0,
		delay: sim.Time(1+(b>>2)%8) * 100,
	}
}

// FuzzIRQ drives every registered port's controller with random
// deliveries (through the fault plane and direct), acknowledges,
// deadline writes, engine steps and snapshot round trips, under an
// Every-scheduled fault plane, and checks each step against a reference
// pending set: the pending vector, which acknowledges succeed, the
// delivery tallies, the timer and the on-deliver hook.
func FuzzIRQ(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 1, 3, 0x80,
		0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0,
		3, 0, 0, 7, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0})
	f.Add([]byte{1, 0x81, 1, 2,
		4, 10, 1, 0, 3, 0, 5, 30, 0, 7, 0, 0, 6, 0, 0, 3, 0, 0, 4, 0, 0, 5, 255, 0})
	f.Add([]byte{3, 4, 2, 8,
		0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0,
		4, 2, 0, 5, 5, 0, 7, 0, 0, 2, 3, 0, 6, 0, 0, 7, 0, 0, 5, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		for _, name := range ports.Names() {
			order, ok := irqOrder[name]
			if !ok {
				t.Fatalf("no reference priority rule for port %q", name)
			}
			ref := &irqRef{lowFirst: order.lowFirst, ackable: order.ackable,
				irq: refSiteFrom(data[0], data[1]), ipi: refSiteFrom(data[2], data[3])}
			fuzzIRQPort(t, ports.Get(name), ref, data[4:])
		}
	})
}

func fuzzIRQPort(t *testing.T, p ports.Port, ref *irqRef, ops []byte) {
	eng := sim.New()
	plane := fault.NewPlane(eng, 1)
	for _, s := range []struct {
		site string
		ref  refSite
	}{{fault.SiteIRQ, ref.irq}, {fault.SiteIPI, ref.ipi}} {
		if s.ref.every > 0 {
			cfg := fault.SiteConfig{Site: s.site, Every: s.ref.every, After: s.ref.after}
			if s.ref.drop {
				cfg.Drop = true
			} else {
				cfg.Delay = s.ref.delay
			}
			plane.Add(cfg)
		}
	}
	var hooks uint64
	c := p.NewIRQ(0, eng)
	c.SetOnDeliver(func(int) { hooks++ })

	check := func(step int, what string) {
		t.Helper()
		v, ok := c.PendingVector()
		if wv, wok := ref.top(); v != wv || ok != wok {
			t.Fatalf("%s op %d (%s): PendingVector (%#x,%v), want (%#x,%v)", p.Name(), step, what, v, ok, wv, wok)
		}
		if got, want := c.HasPending(), ref.n > 0; got != want {
			t.Fatalf("%s op %d (%s): HasPending %v, want %v", p.Name(), step, what, got, want)
		}
		got := [4]uint64{c.Delivered(), c.Dropped(), c.Delayed(), hooks}
		if want := [4]uint64{ref.delivered, ref.dropped, ref.delayed, ref.delivered}; got != want {
			t.Fatalf("%s op %d (%s): delivered/dropped/delayed/hooks %v, want %v", p.Name(), step, what, got, want)
		}
		if got, want := c.TimerArmed(), ref.deadline != 0; got != want {
			t.Fatalf("%s op %d (%s): TimerArmed %v, want %v", p.Name(), step, what, got, want)
		}
		if eng.Now() != ref.now {
			t.Fatalf("%s op %d (%s): clock %d, want %d", p.Name(), step, what, eng.Now(), ref.now)
		}
	}

	for i := 0; i+2 < len(ops) && i < 3*300; i += 3 {
		a, b := ops[i+1], ops[i+2]
		var what string
		switch ops[i] % 8 {
		case 0:
			vec := irqVector(a, b)
			what = "Deliver"
			c.Deliver(vec)
			ref.deliver(vec)
		case 1:
			vec := irqVector(a, b)
			what = "DeliverDirect"
			c.DeliverDirect(vec)
			ref.deliverNow(vec)
		case 2:
			vec := irqVector(a, b)
			what = "Ack"
			if got, want := c.Ack(vec), ref.ack(vec); got != want {
				t.Fatalf("%s op %d: Ack(%#x) = %v, want %v", p.Name(), i/3, vec, got, want)
			}
		case 3:
			what = "Ack(top)"
			if vec, ok := c.PendingVector(); ok {
				if got, want := c.Ack(vec), ref.ack(vec); got != want {
					t.Fatalf("%s op %d: Ack(top %#x) = %v, want %v", p.Name(), i/3, vec, got, want)
				}
			}
		case 4:
			d := sim.Time(a) * 50
			if b&1 != 0 {
				d += eng.Now()
			}
			what = "SetDeadline"
			c.SetDeadline(d)
			ref.setDeadline(d)
		case 5:
			what = "RunUntil"
			to := eng.Now() + sim.Time(a)*20
			eng.RunUntil(to)
			ref.runUntil(to)
		case 6:
			what = "Step"
			eng.Step()
			ref.step()
		case 7:
			what = "snapshot"
			ws := saveIRQ(c)
			// With re-deliveries in flight the old controller must stay:
			// their closures target it. Then the restored copy is checked
			// on an engine of its own and dropped.
			swap := !ref.inFlight()
			target := eng
			if !swap {
				target = sim.New()
				target.Advance(eng.Now())
			} else {
				c.SetDeadline(0)
			}
			c2 := p.NewIRQ(0, target)
			if err := loadIRQ(c2, ws); err != nil {
				t.Fatalf("%s op %d: LoadWords of own SaveWords: %v", p.Name(), i/3, err)
			}
			if got := saveIRQ(c2); !reflect.DeepEqual(got, ws) {
				t.Fatalf("%s op %d: snapshot not stable: %v -> %v", p.Name(), i/3, ws, got)
			}
			v1, ok1 := c2.PendingVector()
			v2, ok2 := ref.top()
			if v1 != v2 || ok1 != ok2 || c2.HasPending() != (ref.n > 0) || c2.TimerArmed() != (ref.deadline != 0) {
				t.Fatalf("%s op %d: restored controller pending (%#x,%v) armed %v, want (%#x,%v) armed %v",
					p.Name(), i/3, v1, ok1, c2.TimerArmed(), v2, ok2, ref.deadline != 0)
			}
			if swap {
				c = c2
				hooks = 0
				c.SetOnDeliver(func(int) { hooks++ })
				ref.delivered, ref.dropped, ref.delayed = 0, 0, 0
				ref.setDeadline(ref.deadline)
			}
		}
		check(i/3, what)
	}
}
