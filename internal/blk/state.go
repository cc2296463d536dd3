package blk

import (
	"svtsim/internal/mem"
	"svtsim/internal/sim"
	"svtsim/internal/words"
)

// SaveWords writes the resident pages of the backing store and the
// service-model busy horizon. Request and error tallies are diagnostics
// and are not written.
func (d *Disk) SaveWords(w *words.Writer) {
	d.store.SaveWords(w)
	w.Word(uint64(d.busyUntil))
}

// LoadWords replaces the disk contents and service state with words
// SaveWords wrote. Writes that landed after the capture are dropped, as
// restore semantics require.
func (d *Disk) LoadWords(r *words.Reader) {
	store := mem.New(d.store.Size())
	store.LoadWords(r)
	busy := sim.Time(r.Word())
	if r.Err() == nil {
		d.store, d.busyUntil = store, busy
	}
}
