package armlike

import (
	"fmt"
	"slices"
	"sort"

	"svtsim/internal/fault"
	"svtsim/internal/obs"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// NumListRegs is the number of hardware list registers the vGIC CPU
// interface exposes. Real GIC implementations ship 4 or 16; the small
// figure keeps the spill/maintenance path exercised under load.
const NumListRegs = 4

// VGIC is one vGIC CPU interface. Unlike the LAPIC's 256-bit IRR, only
// the vectors sitting in a list register are deliverable; when the LRs
// are full, further vectors spill into a software pending set and a
// maintenance refill moves the lowest spilled vector into an LR when an
// acknowledge frees one. Priority is GIC-style lowest-INTID-first (the
// LAPIC's is highest-vector-first). The zero value is unusable;
// construct with NewVGIC.
type VGIC struct {
	ID  int
	eng *sim.Engine

	lr     []int     // occupied list registers, sorted ascending
	spill  [256]bool // software-pending vectors that found no free LR
	nspill int

	deadlineEv sim.EventRef
	// deadline mirrors the armed CNTV_CVAL-style comparator (0 =
	// disarmed) so snapshot capture can serialize and re-arm it.
	deadline   sim.Time
	timerFired obs.Counter
	delivered  obs.Counter
	dropped    obs.Counter
	delayed    obs.Counter
	maint      obs.Counter // maintenance refills (spill → list register)
	onDeliver  func(vec int)

	obsT     *obs.Tracer
	obsTrack int
	obsLabel obs.Label
}

// NewVGIC returns a vGIC CPU interface bound to the engine.
func NewVGIC(id int, eng *sim.Engine) *VGIC {
	return &VGIC{ID: id, eng: eng, lr: make([]int, 0, NumListRegs)}
}

// SetObs attaches the observability tracer (nil detaches).
func (g *VGIC) SetObs(t *obs.Tracer, track int, name string) {
	g.obsT = t
	g.obsTrack = track
	g.obsLabel = t.Intern(name)
}

// Metrics registers this vGIC's tallies under prefix. The first four
// names match the LAPIC's so port-generic dashboards line up; the
// maintenance tally is vGIC-only.
func (g *VGIC) Metrics(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+".timer_fired", &g.timerFired)
	r.RegisterCounter(prefix+".delivered", &g.delivered)
	r.RegisterCounter(prefix+".dropped", &g.dropped)
	r.RegisterCounter(prefix+".delayed", &g.delayed)
	r.RegisterCounter(prefix+".maint", &g.maint)
}

// SetOnDeliver installs the post-delivery callback (ports.IRQController).
func (g *VGIC) SetOnDeliver(fn func(vec int)) { g.onDeliver = fn }

func (g *VGIC) inLR(vec int) bool {
	for _, v := range g.lr {
		if v == vec {
			return true
		}
	}
	return false
}

// insertLR places vec into the sorted list registers; caller guarantees
// space and absence.
func (g *VGIC) insertLR(vec int) {
	i := sort.SearchInts(g.lr, vec)
	g.lr = append(g.lr, 0)
	copy(g.lr[i+1:], g.lr[i:])
	g.lr[i] = vec
}

// Deliver marks vec pending, through the fault plane (injected drops
// lose the vector, delays re-deliver it later) — same interconnect
// model as the LAPIC.
func (g *VGIC) Deliver(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	if g.eng != nil {
		site := fault.SiteIRQ
		if vec == ports.VecIPI {
			site = fault.SiteIPI
		}
		out := g.eng.Inject(site)
		if out.Drop {
			g.dropped.Inc()
			return
		}
		if out.Delay > 0 {
			g.delayed.Inc()
			g.eng.After(out.Delay, func() { g.deliverNow(vec) })
			return
		}
	}
	g.deliverNow(vec)
}

// DeliverDirect marks vec pending, bypassing the fault plane (VM-entry
// event injection: the vector already crossed the interconnect).
func (g *VGIC) DeliverDirect(vec int) {
	if vec < 0 || vec > 255 {
		return
	}
	g.deliverNow(vec)
}

func (g *VGIC) deliverNow(vec int) {
	if g.eng != nil {
		g.eng.NoteWake()
	}
	switch {
	case g.inLR(vec) || g.spill[vec]:
		// Level-collapsing, like an already-set IRR bit.
	case len(g.lr) < NumListRegs:
		g.insertLR(vec)
	case vec < g.lr[len(g.lr)-1]:
		// Higher priority (lower INTID) than the worst resident LR:
		// evict that one to the spill set and seat the newcomer.
		ev := g.lr[len(g.lr)-1]
		g.lr = g.lr[:len(g.lr)-1]
		g.spill[ev] = true
		g.nspill++
		g.insertLR(vec)
	default:
		g.spill[vec] = true
		g.nspill++
	}
	g.delivered.Inc()
	if g.obsT != nil && g.eng != nil {
		kind := obs.KindIRQ
		if vec == ports.VecIPI {
			kind = obs.KindIPI
		}
		g.obsT.Instant(g.obsTrack, kind, obs.LevelNone, g.obsLabel,
			g.eng.Now(), uint64(vec), uint64(len(g.lr)+g.nspill))
	}
	if g.onDeliver != nil {
		g.onDeliver(vec)
	}
}

// PendingVector returns the highest-priority deliverable vector —
// GIC-style, the lowest INTID resident in a list register — without
// acknowledging it.
func (g *VGIC) PendingVector() (int, bool) {
	if len(g.lr) == 0 {
		return 0, false
	}
	return g.lr[0], true
}

// HasPending reports whether any vector is pending. Spilled vectors
// count: they are pending work, merely waiting for a free LR.
func (g *VGIC) HasPending() bool { return len(g.lr) > 0 || g.nspill > 0 }

// Ack consumes a pending vector. Only list-register-resident vectors
// are acknowledgeable (ICC_IAR only ever returns LR contents); freeing
// an LR triggers a maintenance refill of the lowest spilled vector.
func (g *VGIC) Ack(vec int) bool {
	if vec < 0 || vec > 255 || !g.inLR(vec) {
		return false
	}
	i := sort.SearchInts(g.lr, vec)
	g.lr = append(g.lr[:i], g.lr[i+1:]...)
	if g.nspill > 0 {
		for v := 0; v < 256; v++ {
			if g.spill[v] {
				g.spill[v] = false
				g.nspill--
				g.insertLR(v)
				g.maint.Inc()
				break
			}
		}
	}
	return true
}

// SetDeadline arms the one-shot virtual-timer comparator for absolute
// time t; at t the vGIC delivers ports.VecTimer. Zero disarms, re-arm
// replaces — the same contract as the LAPIC's TSC deadline.
func (g *VGIC) SetDeadline(t sim.Time) {
	g.eng.Cancel(g.deadlineEv)
	g.deadlineEv = sim.EventRef{}
	g.deadline = t
	if t == 0 {
		return
	}
	g.deadlineEv = g.eng.At(t, func() {
		g.deadlineEv = sim.EventRef{}
		g.deadline = 0
		g.timerFired.Inc()
		g.Deliver(ports.VecTimer)
	})
}

// TimerArmed reports whether a deadline is pending.
func (g *VGIC) TimerArmed() bool { return g.deadlineEv.Pending() }

// Delivered reports the total vectors delivered (including collapsed ones).
func (g *VGIC) Delivered() uint64 { return g.delivered.Value() }

// Dropped reports vectors lost to injected faults.
func (g *VGIC) Dropped() uint64 { return g.dropped.Value() }

// Delayed reports vectors deferred by injected faults.
func (g *VGIC) Delayed() uint64 { return g.delayed.Value() }

// Maintenance reports spill→LR refills.
func (g *VGIC) Maintenance() uint64 { return g.maint.Value() }

// ProbeState dumps the LR/spill occupancy for stall reports.
func (g *VGIC) ProbeState() string {
	vec, ok := g.PendingVector()
	top := "none"
	if ok {
		top = fmt.Sprintf("%#02x", vec)
	}
	return fmt.Sprintf("lr=%d/%d spill=%d top=%s timer=%v delivered=%d dropped=%d delayed=%d maint=%d",
		len(g.lr), NumListRegs, g.nspill, top, g.TimerArmed(),
		g.Delivered(), g.Dropped(), g.Delayed(), g.Maintenance())
}

// SaveWords is the snapshot codec: LR count, LR vectors (ascending),
// spill count, spilled vectors (ascending), deadline. Frozen once
// shipped — snapshot digests depend on it.
func (g *VGIC) SaveWords(w *words.Writer) {
	w.Table(len(g.lr), 1, func() {
		for _, v := range g.lr {
			w.Word(uint64(v))
		}
	})
	w.Table(g.nspill, 1, func() {
		for v := 0; v < 256; v++ {
			if g.spill[v] {
				w.Word(uint64(v))
			}
		}
	})
	w.Word(uint64(g.deadline))
}

// LoadWords restores state captured by SaveWords. Vectors must ascend
// within each set, and no vector may sit in both.
func (g *VGIC) LoadWords(r *words.Reader) {
	var lr [NumListRegs]int
	nlr := r.Count(1)
	if nlr > NumListRegs {
		r.Fail(fmt.Errorf("vgic: %d list registers, the interface has %d", nlr, NumListRegs))
	}
	for i, next := 0, uint64(0); i < nlr && r.Err() == nil; i++ {
		v := r.Range(next, 256, "vgic: list-register vector")
		lr[i], next = int(v), v+1
	}
	var spill [256]bool
	nspill := r.Count(1)
	for i, next := 0, uint64(0); i < nspill; i++ {
		v := r.Range(next, 256, "vgic: spilled vector")
		if r.Err() == nil && slices.Contains(lr[:nlr], int(v)) {
			r.Fail(fmt.Errorf("vgic: vector %#x both in a list register and spilled", v))
		}
		spill[v], next = true, v+1
	}
	deadline := sim.Time(r.Word())
	if r.Err() != nil {
		return
	}
	g.lr = append(g.lr[:0], lr[:nlr]...)
	g.spill, g.nspill = spill, nspill
	g.SetDeadline(deadline)
}
