package swsvt

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// SaveWords writes the slot in the snapshot's command-ring format, kept
// so that every capture digest stays: a free-running head (pushes less
// the occupancy), tail and push counter, then the occupancy, 0 or 1, and
// a queued command as its type word, a sequence number equal to head,
// and its trap identifier.
func (s *Slot) SaveWords(w *words.Writer) {
	n := uint64(s.Len())
	w.Word(s.pushes - n)
	w.Word(s.pushes)
	w.Word(s.pushes)
	w.Table(int(n), 3, func() {
		if s.full {
			w.Word(s.cmd)
			w.Word(s.pushes - 1)
			w.Word(s.exit)
		}
	})
}

// LoadWords overwrites the slot with words SaveWords wrote. It rejects
// any set a slot cannot hold: a tail other than the push count, more
// than one command, an occupancy other than tail less head, a command
// not of the slot's direction, or a sequence number other than head.
func (s *Slot) LoadWords(rd *words.Reader) {
	head, tail, pushes := rd.Word(), rd.Word(), rd.Word()
	n := rd.Count(3)
	var cmd, seq, exit uint64
	if n == 1 {
		cmd, seq, exit = rd.Word(), rd.Word(), rd.Word()
	}
	if rd.Err() != nil {
		return
	}
	if tail != pushes || n > 1 || tail-head != uint64(n) || n == 1 && (cmd != s.cmd || seq != head) {
		rd.Fail(fmt.Errorf("slot state inconsistent: head=%d tail=%d pushes=%d cmds=%d type=%d seq=%d (want type %d)",
			head, tail, pushes, n, cmd, seq, s.cmd))
		return
	}
	s.pushes, s.full, s.exit = pushes, n == 1, exit
}

// SaveWords writes the reflection protocol's state: both slots of the
// thread's channel, the virtual time of the SVt-thread's last return
// (it feeds stolen-cycle accounting), a stopped flag that is always
// false, and the thread's handled-trap tallies the differential oracle
// reads.
// Watchdog and breaker internals are recovery machinery, re-armed fresh
// after a restore, and the obs counters are diagnostics; neither is
// written.
func (t *SVtThread) SaveWords(w *words.Writer) {
	ch := t.Ch
	ch.ToSVt.SaveWords(w)
	ch.FromSVt.SaveWords(w)
	w.Word(uint64(ch.lastReturn))
	w.Bool(false) // stopped: the SVt-thread never stops, nor L1₀ mid-service
	w.Word(t.Handled)
	for _, n := range t.HandledByReason {
		w.Word(n)
	}
}

// LoadWords overwrites the protocol state with words SaveWords wrote.
// The slots load into copies, which replace the live slots only once the
// whole section has parsed.
func (t *SVtThread) LoadWords(r *words.Reader) {
	ch := t.Ch
	to, from := ch.ToSVt, ch.FromSVt
	to.LoadWords(r)
	from.LoadWords(r)
	last := sim.Time(r.Word())
	r.Range(0, 1, "stopped flag")
	handled := r.Word()
	var byReason [isa.NumExitReasons]uint64
	for i := range byReason {
		byReason[i] = r.Word()
	}
	if r.Err() != nil {
		return
	}
	ch.ToSVt, ch.FromSVt = to, from
	ch.lastReturn = last
	t.Handled, t.HandledByReason = handled, byReason
}
