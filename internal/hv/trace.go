package hv

import (
	"fmt"
	"io"
	"strings"

	"svtsim/internal/isa"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// TraceEntry records one handled VM exit for post-mortem inspection.
type TraceEntry struct {
	At       sim.Time
	VCPU     string
	Reason   isa.ExitReason
	Qual     uint64
	Nested   bool // recorded from the nested (L2) flow
	Duration sim.Time
}

func (e TraceEntry) String() string {
	lvl := "direct"
	if e.Nested {
		lvl = "nested"
	}
	return fmt.Sprintf("%-10s %-8s %-6s %-20s qual=%#x took=%s",
		e.At, e.VCPU, lvl, e.Reason, e.Qual, e.Duration)
}

// Trace is a bounded ring of recent exits. Attach one to a hypervisor
// with SetTrace; tracing is off (and free) by default.
//
// It is a thin adapter over the observability plane's event ring
// (obs.Ring): entries are stored as flat obs.Event records with the
// vCPU name interned, and reconstructed on read. The slab is allocated
// up front, so the old grow-to-cap accounting edge cannot recur.
type Trace struct {
	ring  *obs.Ring
	in    obs.Interner
	namer func(isa.ExitReason) string
}

// SetExitNamer installs a port-vocabulary renderer used by Dump and
// Summary (nil keeps the shared isa names, the x86 spellings).
func (t *Trace) SetExitNamer(fn func(isa.ExitReason) string) { t.namer = fn }

func (t *Trace) exitName(r isa.ExitReason) string {
	if t.namer != nil {
		return t.namer(r)
	}
	return r.String()
}

// NewTrace returns a trace ring holding the most recent n entries.
func NewTrace(n int) *Trace {
	return &Trace{ring: obs.NewRing(n)}
}

func (t *Trace) add(e TraceEntry) {
	lvl := uint8(1)
	kind := obs.KindVMExit
	if e.Nested {
		lvl = 2
		kind = obs.KindNestedExit
	}
	t.ring.Push(obs.Event{
		At:    e.At,
		Dur:   e.Duration,
		Arg1:  uint64(e.Reason),
		Arg2:  e.Qual,
		Kind:  kind,
		Level: lvl,
		Label: t.in.Intern(e.VCPU),
	})
}

// Total reports how many exits were recorded over the run (including ones
// that have since rotated out of the ring).
func (t *Trace) Total() uint64 { return t.ring.Total() }

// Entries returns the retained exits, oldest first.
func (t *Trace) Entries() []TraceEntry {
	out := make([]TraceEntry, 0, t.ring.Len())
	t.ring.Do(func(ev obs.Event) {
		out = append(out, TraceEntry{
			At:       ev.At,
			VCPU:     t.in.Lookup(ev.Label),
			Reason:   isa.ExitReason(ev.Arg1),
			Qual:     ev.Arg2,
			Nested:   ev.Kind == obs.KindNestedExit,
			Duration: ev.Dur,
		})
	})
	return out
}

// Dump writes the retained entries to w.
func (t *Trace) Dump(w io.Writer) {
	fmt.Fprintf(w, "exit trace: %d recorded, %d retained\n", t.ring.Total(), t.ring.Len())
	for _, e := range t.Entries() {
		lvl := "direct"
		if e.Nested {
			lvl = "nested"
		}
		fmt.Fprintf(w, "  %-10s %-8s %-6s %-20s qual=%#x took=%s\n",
			e.At, e.VCPU, lvl, t.exitName(e.Reason), e.Qual, e.Duration)
	}
}

// Summary renders per-reason counts of the retained window.
func (t *Trace) Summary() string {
	var counts [isa.NumExitReasons]int
	for _, e := range t.Entries() {
		counts[e.Reason]++
	}
	var b strings.Builder
	for r, c := range counts {
		if c > 0 {
			fmt.Fprintf(&b, "%s=%d ", t.exitName(isa.ExitReason(r)), c)
		}
	}
	return strings.TrimSpace(b.String())
}

// SetTrace attaches (or detaches, with nil) an exit trace.
func (h *Hypervisor) SetTrace(t *Trace) { h.trace = t }

// GetTrace returns the attached trace, if any.
func (h *Hypervisor) GetTrace() *Trace { return h.trace }

// SetObs attaches (or detaches, with nil) the observability tracer.
// Exit spans land on the track of the exiting vCPU's hardware context.
func (h *Hypervisor) SetObs(t *obs.Tracer) { h.obs = t }

// Obs returns the attached tracer, if any.
func (h *Hypervisor) Obs() *obs.Tracer { return h.obs }

func (h *Hypervisor) traceExit(vc *VCPU, e isa.Exit, nested bool, start sim.Time) {
	if h.trace != nil {
		h.trace.add(TraceEntry{
			At:       start,
			VCPU:     vc.Name,
			Reason:   e.Reason,
			Qual:     e.Qualification,
			Nested:   nested,
			Duration: h.P.Now() - start,
		})
	}
	if h.obs != nil {
		kind := obs.KindVMExit
		if nested {
			kind = obs.KindNestedExit
		}
		if vc.obsLabel == 0 {
			vc.obsLabel = h.obs.Intern(vc.Name)
		}
		h.obs.Span(int(vc.Ctx), kind, uint8(vc.Lvl), vc.obsLabel,
			start, h.P.Now(), uint64(e.Reason), e.Qualification)
	}
}
