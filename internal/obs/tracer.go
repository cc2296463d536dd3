package obs

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/sim"
)

// Label is an interned string handle carried by events. The zero label
// is the empty string, so a zero Event has no label and components can
// cache "not yet interned" as 0.
type Label uint16

// Interner is a small append-only string table. The zero value is ready
// to use; index 0 is always the empty string.
type Interner struct {
	labels  []string
	byLabel map[string]Label
}

// Intern returns the stable label for s, creating it on first use.
func (in *Interner) Intern(s string) Label {
	if s == "" {
		return 0
	}
	if in.byLabel == nil {
		in.byLabel = map[string]Label{"": 0}
		in.labels = append(in.labels, "")
	}
	if l, ok := in.byLabel[s]; ok {
		return l
	}
	l := Label(len(in.labels))
	in.labels = append(in.labels, s)
	in.byLabel[s] = l
	return l
}

// Lookup resolves a label back to its string ("" for unknown labels).
func (in *Interner) Lookup(l Label) string {
	if int(l) >= len(in.labels) {
		return ""
	}
	return in.labels[l]
}

// Options configures the observability plane at machine assembly.
type Options struct {
	// RingCap is the per-track event capacity (default 16384). Small
	// caps drop the oldest events but never change simulation results.
	RingCap int
}

// DefaultRingCap is the per-track ring capacity when Options leaves it 0.
const DefaultRingCap = 16384

// DispatchSample is the dispatch-marker period: the engine track gets
// one marker every DispatchSample event dispatches.
const DispatchSample = 4096

func (o Options) ringCap() int {
	if o.RingCap > 0 {
		return o.RingCap
	}
	return DefaultRingCap
}

// Tracer records events over virtual time into per-track rings. Tracks
// 0..nctx-1 are the hardware contexts of the simulated core — one
// Perfetto track per context, so SMT colocation of virtualization
// levels is visible on the timeline — followed by one track for device
// models (virtio, disk, faults) and one for the event engine.
//
// All emit methods are nil-receiver safe: a nil *Tracer ignores every
// call, which is the disabled path's whole cost model.
type Tracer struct {
	in     Interner
	nctx   int
	names  []string
	tracks []*Ring
	// exitName, when set, renders exit reasons in the architecture
	// port's vocabulary (SetExitNamer); nil falls back to the shared
	// isa names, which are the x86 spellings.
	exitName func(r isa.ExitReason) string
}

// SetExitNamer installs the exit-reason renderer used by trace export.
// The machine wires the active port's ExitName here so exported traces
// speak the architecture's vocabulary; nil restores the isa names.
func (t *Tracer) SetExitNamer(fn func(r isa.ExitReason) string) { t.exitName = fn }

// ExitName renders one exit reason through the installed namer.
func (t *Tracer) ExitName(r isa.ExitReason) string {
	if t.exitName != nil {
		return t.exitName(r)
	}
	return r.String()
}

// NewTracer builds a tracer for a machine with nctx hardware contexts
// and the given per-track ring capacity.
func NewTracer(nctx, ringCap int) *Tracer {
	t := &Tracer{nctx: nctx}
	for i := 0; i < nctx; i++ {
		t.names = append(t.names, fmt.Sprintf("hw-context-%d", i))
		t.tracks = append(t.tracks, NewRing(ringCap))
	}
	t.names = append(t.names, "devices", "engine")
	t.tracks = append(t.tracks, NewRing(ringCap), NewRing(ringCap))
	return t
}

// Contexts reports the number of hardware-context tracks.
func (t *Tracer) Contexts() int {
	if t == nil {
		return 0
	}
	return t.nctx
}

// DeviceTrack is the track index for device-model events.
func (t *Tracer) DeviceTrack() int {
	if t == nil {
		return 0
	}
	return t.nctx
}

// EngineTrack is the track index for event-engine events.
func (t *Tracer) EngineTrack() int {
	if t == nil {
		return 0
	}
	return t.nctx + 1
}

// SetTrackName renames a track (multi-core hosts label context tracks
// with their socket/core/thread coordinates).
func (t *Tracer) SetTrackName(i int, name string) {
	if t == nil || i < 0 || i >= len(t.names) {
		return
	}
	t.names[i] = name
}

// Ring exposes a track's event ring (exporters, tests).
func (t *Tracer) Ring(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.tracks) {
		return nil
	}
	return t.tracks[i]
}

// Intern returns the stable label for s (0 on a nil tracer, so cached
// labels from a disabled phase stay inert).
func (t *Tracer) Intern(s string) Label {
	if t == nil {
		return 0
	}
	return t.in.Intern(s)
}

// Lookup resolves a label.
func (t *Tracer) Lookup(l Label) string {
	if t == nil {
		return ""
	}
	return t.in.Lookup(l)
}

func (t *Tracer) clamp(track int) int {
	if track < 0 {
		return 0
	}
	if track >= len(t.tracks) {
		return len(t.tracks) - 1
	}
	return track
}

// Span records a [start, end) interval on a track.
func (t *Tracer) Span(track int, k Kind, level uint8, label Label, start, end sim.Time, a1, a2 uint64) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.tracks[t.clamp(track)].Push(Event{
		At: start, Dur: dur, Arg1: a1, Arg2: a2,
		Kind: k, Level: level, Label: label,
	})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track int, k Kind, level uint8, label Label, at sim.Time, a1, a2 uint64) {
	if t == nil {
		return
	}
	t.tracks[t.clamp(track)].Push(Event{
		At: at, Arg1: a1, Arg2: a2,
		Kind: k, Level: level, Label: label,
	})
}

// Total reports lifetime events recorded across all tracks.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, r := range t.tracks {
		n += r.Total()
	}
	return n
}

// Plane bundles one machine's tracer and metrics registry.
type Plane struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New assembles a plane for a machine with nctx hardware contexts.
func New(nctx int, o Options) *Plane {
	return &Plane{
		Tracer:  NewTracer(nctx, o.ringCap()),
		Metrics: NewRegistry(),
	}
}
