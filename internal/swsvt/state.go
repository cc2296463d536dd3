package swsvt

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// SaveWords writes the ring: the free-running head, tail and push
// counters, then the queued commands oldest first, each its type,
// sequence number and trap identifier.
func (r *Ring) SaveWords(w *words.Writer) {
	w.Word(r.head)
	w.Word(r.tail)
	w.Word(r.pushes)
	w.Table(r.Len(), 3, func() {
		for i := r.head; i != r.tail; i++ {
			c := r.buf[i%uint64(len(r.buf))]
			w.Word(uint64(c.Type))
			w.Word(c.Seq)
			w.Word(c.Exit)
		}
	})
}

// LoadWords overwrites the ring with words SaveWords wrote, placing the
// commands back at their original slots so the head/tail arithmetic
// (and the Seq numbers already assigned) replays exactly. The occupancy
// must agree with head and tail and fit the capacity, which is fixed at
// machine construction. The ring gets a fresh buffer, never writing
// into the one it had.
func (r *Ring) LoadWords(rd *words.Reader) {
	head, tail, pushes := rd.Word(), rd.Word(), rd.Word()
	n := rd.Count(3)
	if rd.Err() != nil {
		return
	}
	if tail-head != uint64(n) || n > len(r.buf) {
		rd.Fail(fmt.Errorf("ring state inconsistent: head=%d tail=%d cmds=%d cap=%d", head, tail, n, len(r.buf)))
		return
	}
	buf := make([]Cmd, len(r.buf))
	for i := head; i != tail; i++ {
		typ := CmdType(rd.Range(0, uint64(CmdShutdown)+1, "command type"))
		buf[i%uint64(len(buf))] = Cmd{Type: typ, Seq: rd.Word(), Exit: rd.Word()}
	}
	if rd.Err() == nil {
		r.buf, r.head, r.tail, r.pushes = buf, head, tail, pushes
	}
}

// Pending returns the queued commands oldest-first without consuming
// them. It is what lets whole-machine digests fold residual protocol
// state: a command stranded in a ring is architecturally meaningful —
// an exit the SVt-thread never serviced, or a resume the vCPU never
// reaped — and must not be invisible to restore-transparency checks.
func (r *Ring) Pending() []Cmd {
	n := r.Len()
	if n == 0 {
		return nil
	}
	cmds := make([]Cmd, 0, n)
	for i := r.head; i != r.tail; i++ {
		cmds = append(cmds, r.buf[i%uint64(len(r.buf))])
	}
	return cmds
}

// SaveWords writes the reflection protocol's state: both rings of the
// thread's channel, the virtual time of the SVt-thread's last return
// (it feeds stolen-cycle accounting), the terminal stopped flag, and
// the thread's handled-trap tallies the differential oracle reads.
// Watchdog and breaker internals are recovery machinery, re-armed fresh
// after a restore, and the obs counters are diagnostics; neither is
// written.
func (t *SVtThread) SaveWords(w *words.Writer) {
	ch := t.Ch
	ch.ToSVt.SaveWords(w)
	ch.FromSVt.SaveWords(w)
	w.Word(uint64(ch.lastReturn))
	w.Bool(ch.stopped)
	w.Word(t.Handled)
	for _, n := range t.HandledByReason {
		w.Word(n)
	}
}

// LoadWords overwrites the protocol state with words SaveWords wrote.
// The rings load into copies (Ring.LoadWords swaps in a fresh buffer, so
// a copy shares nothing it writes), which replace the live rings only
// once the whole section has parsed.
func (t *SVtThread) LoadWords(r *words.Reader) {
	ch := t.Ch
	to, from := *ch.ToSVt, *ch.FromSVt
	to.LoadWords(r)
	from.LoadWords(r)
	last, stopped := sim.Time(r.Word()), r.Bool()
	handled := r.Word()
	var byReason [isa.NumExitReasons]uint64
	for i := range byReason {
		byReason[i] = r.Word()
	}
	if r.Err() != nil {
		return
	}
	*ch.ToSVt, *ch.FromSVt = to, from
	ch.lastReturn, ch.stopped = last, stopped
	t.Handled, t.HandledByReason = handled, byReason
}
