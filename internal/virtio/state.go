package virtio

import "svtsim/internal/words"

// Word offsets of a queue's section, for targeted corruption in
// broken-restore tests (MutateWord on a "vq/..." section).
const (
	QWordFreeHead = iota
	QWordNumFree
	QWordAvailIdx
	QWordUsedEvent
	QWordLastAvail
	QWordUsedIdx
	QWordLastUsed
)

// SaveWords writes the handle's private state in QWord order. The rings
// and descriptor tables themselves live in guest memory and travel with
// the memory image; these words carry only the shadows and free-list
// head the role keeps outside memory — exactly the state a live
// migration must not drop (a stale avail or used index desynchronizes
// driver and device forever).
func (q *Queue) SaveWords(w *words.Writer) {
	w.Word(uint64(q.freeHead))
	w.Word(uint64(q.numFree))
	w.Word(uint64(q.availIdx))
	w.Word(uint64(q.usedEvent))
	w.Word(uint64(q.lastAvail))
	w.Word(q.usedIdx)
	w.Word(uint64(q.lastUsed))
}

// LoadWords overwrites the handle's private state with words SaveWords
// wrote. Ring indices must fit 16 bits and the free count the queue.
func (q *Queue) LoadWords(r *words.Reader) {
	freeHead := r.Range(0, 1<<16, "free head")
	numFree := r.Range(0, uint64(q.L.Size)+1, "free count")
	availIdx := r.Range(0, 1<<16, "avail index")
	usedEvent := r.Range(0, 1<<16, "used event")
	lastAvail := r.Range(0, 1<<16, "last avail")
	usedIdx := r.Word()
	lastUsed := r.Range(0, 1<<16, "last used")
	if r.Err() != nil {
		return
	}
	q.freeHead, q.numFree, q.availIdx, q.usedEvent = uint16(freeHead), uint16(numFree), uint16(availIdx), uint16(usedEvent)
	q.lastAvail, q.usedIdx, q.lastUsed = uint16(lastAvail), usedIdx, uint16(lastUsed)
}
