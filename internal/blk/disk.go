// Package blk models the storage substrate: the paper loads VM disk
// images into a tmpfs "to make accesses independent of storage
// technologies" (§6), so the backing store here is RAM with a small,
// fixed service-time model (request processing + memory copy bandwidth)
// and serial request service per device.
package blk

import (
	"fmt"

	"svtsim/internal/fault"
	"svtsim/internal/mem"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// SectorSize is the addressing granularity.
const SectorSize = 512

// Disk is a ramdisk with a latency model. It implements
// virtio.BlkTransport.
type Disk struct {
	Eng  *sim.Engine
	Name string

	store    *mem.Memory
	capacity uint64
	dma      virtio.Copier // moves request data between store and guest

	// Service model: done = max(now, busyUntil) + Base + size/Rate.
	ReadBase    sim.Time
	WriteBase   sim.Time
	BytesPerSec float64

	busyUntil sim.Time
	// inService holds the requests between Submit and completion. They
	// complete at busyUntil, which only moves forward, so they complete
	// in submission order.
	inService sim.FIFO[request]

	Reads  uint64
	Writes uint64
	Errors uint64

	// obsT, when non-nil, receives one span per serviced request on
	// obsTrack (the devices track, normally).
	obsT     *obs.Tracer
	obsTrack int
	obsLabel obs.Label
}

// SetObs attaches the observability tracer (nil detaches).
func (d *Disk) SetObs(t *obs.Tracer, track int) {
	d.obsT = t
	d.obsTrack = track
	d.obsLabel = t.Intern(d.Name)
}

// NewDisk builds a ramdisk of the given capacity in bytes.
func NewDisk(eng *sim.Engine, name string, capacity uint64) *Disk {
	return &Disk{
		Eng:         eng,
		Name:        name,
		store:       mem.New(capacity),
		capacity:    capacity,
		ReadBase:    3 * sim.Microsecond,
		WriteBase:   4 * sim.Microsecond,
		BytesPerSec: 4e9, // tmpfs copy bandwidth
	}
}

// request is a serviced operation awaiting its completion event.
type request struct {
	write bool
	off   uint64
	m     virtio.MemIO
	gpa   uint64
	n     uint32
	done  func(ok bool)
}

func (d *Disk) svc(write bool, n int) sim.Time {
	base := d.ReadBase
	if write {
		base = d.WriteBase
	}
	if d.BytesPerSec <= 0 {
		return base
	}
	return base + sim.Time(float64(n)/d.BytesPerSec*float64(sim.Second))
}

// Submit implements virtio.BlkTransport: schedule the operation and, at
// its completion event, move the data between the image and m at gpa
// (a write reads m, a read writes it), then call done.
func (d *Disk) Submit(write bool, sector uint64, m virtio.MemIO, gpa uint64, n uint32, done func(ok bool)) {
	off, ok := d.span(sector, uint64(n))
	if !ok {
		d.Errors++
		d.Eng.After(d.ReadBase, func() { done(false) })
		return
	}
	// Fault plane: a dropped completion surfaces as an I/O error after the
	// base latency (so callers never hang on a request that will not
	// finish); a delay stretches the service time.
	var faultDelay sim.Time
	if out := d.Eng.Inject(fault.SiteBlkComplete); out.Faulty() {
		if out.Drop {
			d.Errors++
			d.Eng.After(d.ReadBase+out.Delay, func() { done(false) })
			return
		}
		faultDelay = out.Delay
	}
	start := d.Eng.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	finish := start + d.svc(write, int(n)) + faultDelay
	d.busyUntil = finish
	if d.obsT != nil {
		wr := uint64(0)
		if write {
			wr = 1
		}
		d.obsT.Span(d.obsTrack, obs.KindBlkIO, obs.LevelNone, d.obsLabel,
			start, finish, wr, uint64(n))
	}
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	d.inService.At(d.Eng, finish, d, request{write, off, m, gpa, n, done})
}

// Fire implements sim.Handler: the oldest request completes, moving its
// data between the image and guest memory, and its callback runs.
func (d *Disk) Fire(arg uint64) {
	r := d.inService.Pop(arg, d.Name)
	var err error
	if r.write {
		err = d.dma.Copy(d.store, r.off, r.m, r.gpa, r.n)
	} else {
		err = d.dma.Copy(r.m, r.gpa, d.store, r.off, r.n)
	}
	r.done(err == nil)
}

// span returns the byte offset of an n-byte access at sector, and false
// when the access does not fit in the image. The sector is bounded
// before it is scaled, so a huge sector cannot wrap into range.
func (d *Disk) span(sector, n uint64) (uint64, bool) {
	if sector > d.capacity/SectorSize {
		return 0, false
	}
	off := sector * SectorSize
	return off, n <= d.capacity-off
}

// ReadSync reads directly from the image, with no latency. Only tests
// call it; it stays because it is how they read a disk's contents.
func (d *Disk) ReadSync(sector uint64, n int) ([]byte, error) {
	off, ok := d.span(sector, uint64(n))
	if !ok {
		return nil, fmt.Errorf("blk %s: %d bytes at sector %d outside the %d-byte image", d.Name, n, sector, d.capacity)
	}
	buf := make([]byte, n)
	if err := d.store.Read(off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
