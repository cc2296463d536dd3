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

	inflight map[uint16]*blkOp

	Reads  uint64
	Writes uint64
	// PerRequestCPU models the guest block layer's per-request cost.
	PerRequestCPU sim.Time
}

type blkOp struct {
	write   bool
	hdrGPA  uint64
	dataGPA uint64
	n       uint32
	stsGPA  uint64
	done    func(ok bool, data []byte)
}

// NewBlkDriver initializes the request queue in guest memory.
func NewBlkDriver(e *Env, vector int, mmio uint64, layoutBase uint64, qsize uint16) (*BlkDriver, error) {
	l := virtio.NewLayout(layoutBase, qsize)
	q, err := virtio.NewQueue(l, e.Mem, true)
	if err != nil {
		return nil, err
	}
	d := &BlkDriver{
		Env:           e,
		Vector:        vector,
		MMIO:          mmio,
		Q:             q,
		inflight:      make(map[uint16]*blkOp),
		PerRequestCPU: 1500, // ns: block layer + fs shim
	}
	virtio.ConfigureQueue(func(addr, val uint64) {
		e.Port.Exec(isa.MMIOWrite(addr, val))
	}, mmio, 0, l)
	e.Blk = d
	return d, nil
}

// Submit issues an asynchronous block request; done runs in kernel
// context on completion. The kick is a trapping MMIO write.
func (d *BlkDriver) Submit(write bool, sector uint64, data []byte, done func(ok bool, data []byte)) {
	d.Env.Compute(d.PerRequestCPU)
	hdrGPA := d.Env.Alloc(virtio.BlkHeaderSize)
	if err := d.Env.Mem.Write(hdrGPA, virtio.EncodeBlkHeader(write, sector)); err != nil {
		panic(fmt.Sprintf("guest blk: %v", err))
	}
	n := uint32(len(data))
	dataGPA := d.Env.Alloc(uint64(n))
	if write {
		if err := d.Env.Mem.Write(dataGPA, data); err != nil {
			panic(fmt.Sprintf("guest blk: %v", err))
		}
		d.Writes++
	} else {
		d.Reads++
	}
	stsGPA := d.Env.Alloc(1)
	chain := []virtio.Buf{
		{GPA: hdrGPA, Len: virtio.BlkHeaderSize},
		{GPA: dataGPA, Len: n, DeviceWrite: !write},
		{GPA: stsGPA, Len: 1, DeviceWrite: true},
	}
	head, err := d.Q.Post(chain)
	if err != nil {
		panic(fmt.Sprintf("guest blk: %v", err))
	}
	d.inflight[head] = &blkOp{write: write, hdrGPA: hdrGPA, dataGPA: dataGPA, n: n, stsGPA: stsGPA, done: done}
	d.Env.Port.Exec(isa.MMIOWrite(d.MMIO+virtio.RegQueueNotify, 0))
}

// Read performs a synchronous read of n bytes at sector.
func (d *BlkDriver) Read(sector uint64, n int) ([]byte, bool) {
	var out []byte
	okRes := false
	doneFired := false
	d.Submit(false, sector, make([]byte, n), func(ok bool, data []byte) {
		okRes = ok
		out = data
		doneFired = true
	})
	d.Env.WaitFor(func() bool { return doneFired })
	return out, okRes
}

// Write performs a synchronous write at sector.
func (d *BlkDriver) Write(sector uint64, data []byte) bool {
	okRes := false
	doneFired := false
	d.Submit(true, sector, data, func(ok bool, _ []byte) {
		okRes = ok
		doneFired = true
	})
	d.Env.WaitFor(func() bool { return doneFired })
	return okRes
}

// OnIRQ retires completed requests, first acknowledging the device
// interrupt with a trapped MMIO write.
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
		op := d.inflight[head]
		delete(d.inflight, head)
		if op == nil {
			continue
		}
		var sts [1]byte
		if err := d.Env.Mem.Read(op.stsGPA, sts[:]); err != nil {
			panic(fmt.Sprintf("guest blk: status: %v", err))
		}
		var data []byte
		if !op.write && sts[0] == virtio.BlkSOK {
			data = make([]byte, op.n)
			if err := d.Env.Mem.Read(op.dataGPA, data); err != nil {
				panic(fmt.Sprintf("guest blk: data: %v", err))
			}
		}
		d.Env.Free(op.hdrGPA, virtio.BlkHeaderSize)
		d.Env.Free(op.dataGPA, uint64(op.n))
		d.Env.Free(op.stsGPA, 1)
		d.Env.Compute(d.PerRequestCPU / 2)
		if op.done != nil {
			op.done(sts[0] == virtio.BlkSOK, data)
		}
	}
}

// AsTransport adapts the driver as a virtio.BlkTransport for a nested
// backend (the vhost-blk path).
func (d *BlkDriver) AsTransport() virtio.BlkTransport { return &blkTransport{d} }

type blkTransport struct{ d *BlkDriver }

func (t *blkTransport) Submit(write bool, sector uint64, data []byte, done func(ok bool, read []byte)) {
	t.d.Submit(write, sector, data, done)
}
