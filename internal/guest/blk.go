package guest

import (
	"fmt"

	"svtsim/internal/isa"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// BlkDriver is the virtio-blk front end inside the guest.
type BlkDriver struct {
	Env    *Env
	Vector int
	MMIO   uint64

	Q *virtio.Queue

	ops    []blkOp // in-flight requests by chain head
	copier virtio.Copier
	hdr    [virtio.BlkHeaderSize]byte
	sts    [1]byte

	// A synchronous request's completion: syncDone is bound to
	// finishSync on first use and records the result in syncOK.
	syncDone func(ok bool)
	syncing  bool
	syncOK   bool

	// PerRequestCPU models the guest block layer's per-request cost.
	PerRequestCPU sim.Time
}

// blkOp is one request from Submit to its used entry. Its data lives in
// an arena buffer at dataGPA; the caller's side of it is either a Go
// buffer p (a workload) or n bytes of another memory m at gpa (a nested
// backend using the driver as its transport).
type blkOp struct {
	live    bool
	write   bool
	hdrGPA  uint64
	dataGPA uint64
	n       uint32
	stsGPA  uint64
	p       []byte
	m       virtio.MemIO
	gpa     uint64
	done    func(ok bool)
}

// NewBlkDriver initializes the request queue in guest memory.
func NewBlkDriver(e *Env, vector int, mmio uint64, layoutBase uint64) (*BlkDriver, error) {
	l := virtio.NewLayout(layoutBase, blkQueueSize)
	q, err := virtio.NewQueue(l, e.Mem, true)
	if err != nil {
		return nil, err
	}
	d := &BlkDriver{
		Env:           e,
		Vector:        vector,
		MMIO:          mmio,
		Q:             q,
		PerRequestCPU: 1500, // ns: block layer + fs shim
	}
	virtio.ConfigureQueue(func(addr, val uint64) {
		e.Port.Exec(isa.MMIOWrite(addr, val))
	}, mmio, 0, l)
	e.Blk = d
	return d, nil
}

// Submit issues an asynchronous block request over p: a write sends p,
// a read fills p before done runs. done runs in kernel context on
// completion (nil is allowed); p belongs to the driver until then. The
// kick is a trapping MMIO write.
func (d *BlkDriver) Submit(write bool, sector uint64, p []byte, done func(ok bool)) {
	d.submit(sector, blkOp{write: write, n: uint32(len(p)), p: p, done: done})
}

// submit places op's header, data and status in arena buffers, posts
// the chain and kicks the device.
func (d *BlkDriver) submit(sector uint64, op blkOp) {
	d.Env.Compute(d.PerRequestCPU)
	op.live = true
	op.hdrGPA = d.Env.Alloc(virtio.BlkHeaderSize)
	d.hdr = virtio.EncodeBlkHeader(op.write, sector)
	if err := d.Env.Mem.Write(op.hdrGPA, d.hdr[:]); err != nil {
		panic(fmt.Sprintf("guest blk: %v", err))
	}
	op.dataGPA = d.Env.Alloc(uint64(op.n))
	if op.write {
		var err error
		if op.m != nil {
			err = d.copier.Copy(d.Env.Mem, op.dataGPA, op.m, op.gpa, op.n)
		} else {
			err = d.Env.Mem.Write(op.dataGPA, op.p)
		}
		if err != nil {
			panic(fmt.Sprintf("guest blk: %v", err))
		}
	}
	op.stsGPA = d.Env.Alloc(1)
	chain := [3]virtio.Buf{
		{GPA: op.hdrGPA, Len: virtio.BlkHeaderSize},
		{GPA: op.dataGPA, Len: op.n, DeviceWrite: !op.write},
		{GPA: op.stsGPA, Len: 1, DeviceWrite: true},
	}
	head, err := d.Q.Post(chain[:])
	if err != nil {
		panic(fmt.Sprintf("guest blk: %v", err))
	}
	*entry(&d.ops, head) = op
	d.Env.Port.Exec(isa.MMIOWrite(d.MMIO+virtio.RegQueueNotify, 0))
}

// Read fills p from sector with a synchronous request, as io.ReaderAt
// does, and reports whether it succeeded.
func (d *BlkDriver) Read(sector uint64, p []byte) bool { return d.sync(false, sector, p) }

// Write performs a synchronous write of p at sector.
func (d *BlkDriver) Write(sector uint64, p []byte) bool { return d.sync(true, sector, p) }

// sync submits one request and waits for it; the guest issues one
// synchronous request at a time, so its completion lives in the driver.
func (d *BlkDriver) sync(write bool, sector uint64, p []byte) bool {
	if d.syncing {
		panic("guest blk: synchronous request while another is in flight")
	}
	if d.syncDone == nil {
		d.syncDone = d.finishSync
	}
	d.syncing = true
	d.Submit(write, sector, p, d.syncDone)
	d.Env.WaitFor(func() bool { return !d.syncing })
	return d.syncOK
}

func (d *BlkDriver) finishSync(ok bool) { d.syncOK, d.syncing = ok, false }

// OnIRQ retires completed requests, first acknowledging the device
// interrupt with a trapped MMIO write. A read's bytes leave the arena
// buffer before it is freed: the Compute that follows can run interrupt
// handlers, and those may reuse the buffer.
func (d *BlkDriver) OnIRQ() {
	d.Env.Port.Exec(isa.MMIOWrite(d.MMIO+virtio.RegIntrAck, 1))
	for {
		head, _, ok, err := d.Q.PopUsed()
		if err != nil {
			panic(fmt.Sprintf("guest blk: %v", err))
		}
		if !ok {
			return
		}
		if int(head) >= len(d.ops) || !d.ops[head].live {
			panic(fmt.Sprintf("guest blk: driver at %#x: used head %d has no request in flight", d.MMIO, head))
		}
		op := d.ops[head]
		d.ops[head] = blkOp{}
		if err := d.Env.Mem.Read(op.stsGPA, d.sts[:]); err != nil {
			panic(fmt.Sprintf("guest blk: status: %v", err))
		}
		okOp := d.sts[0] == virtio.BlkSOK
		if !op.write && okOp {
			if op.m != nil {
				err = d.copier.Copy(op.m, op.gpa, d.Env.Mem, op.dataGPA, op.n)
			} else {
				err = d.Env.Mem.Read(op.dataGPA, op.p)
			}
			if err != nil {
				panic(fmt.Sprintf("guest blk: data: %v", err))
			}
		}
		d.Env.Free(op.hdrGPA, virtio.BlkHeaderSize)
		d.Env.Free(op.dataGPA, uint64(op.n))
		d.Env.Free(op.stsGPA, 1)
		d.Env.Compute(d.PerRequestCPU / 2)
		if op.done != nil {
			op.done(okOp)
		}
	}
}

// AsTransport adapts the driver as a virtio.BlkTransport for a nested
// backend (the vhost-blk path): a write's bytes are copied from m into
// the driver's arena buffer at submit, and a read's from the arena
// buffer into m when the request retires.
func (d *BlkDriver) AsTransport() virtio.BlkTransport { return blkTransport{d} }

type blkTransport struct{ d *BlkDriver }

func (t blkTransport) Submit(write bool, sector uint64, m virtio.MemIO, gpa uint64, n uint32, done func(ok bool)) {
	t.d.submit(sector, blkOp{write: write, n: n, m: m, gpa: gpa, done: done})
}
