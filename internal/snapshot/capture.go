package snapshot

import (
	"fmt"

	"svtsim/internal/cpu"
	"svtsim/internal/hv"
	"svtsim/internal/machine"
	"svtsim/internal/ports"
	"svtsim/internal/virtio"
	"svtsim/internal/words"
)

// codec is a stateful component's snapshot format, written and read by
// the component itself. LoadWords rejects a malformed section through
// the reader and then leaves the component untouched.
type codec interface {
	SaveWords(w *words.Writer)
	LoadWords(r *words.Reader)
}

// entry is one section of the capture/restore plan. Capture saves every
// entry; Restore matches sections to the identical plan and loads every
// entry, so the two directions can never enumerate different state.
type entry struct {
	name string
	c    codec
}

// plan enumerates the machine's state in fixed section order. The same
// nil-structure (mode, wired devices, booted drivers) yields the same
// plan, which is what makes a snapshot restorable: into the machine it
// came from, or into a freshly built machine of identical configuration.
//
// Execution contexts (parked goroutines, in-flight engine events such
// as a packet on the wire or a pending disk completion) are not part of
// the plan: capture is defined at quiescent op boundaries, and restore
// has write-back semantics — architectural state is replaced while
// execution continues, which is exactly what a live migration moving
// state between identical hosts needs.
func plan(m *machine.Machine, io *machine.IOStack) []entry {
	var es []entry
	add := func(name string, c codec) { es = append(es, entry{name, c}) }
	nctx := m.Core.Contexts()
	add("meta", meta{mode: m.Cfg.Mode, nctx: nctx})
	add("core/gpr", m.Core.RegFile())

	if m.VcpuL1 != nil {
		add("vmcs/01", m.VcpuL1.VMCS)
	}
	if m.VcpuSVt != nil {
		add("vmcs/01-svt", m.VcpuSVt.VMCS)
	}
	if m.VC12 != nil {
		add("vmcs/12", m.VC12.VMCS)
	}
	if m.Ns != nil {
		add("vmcs/02", m.Ns.Vmcs02)
	}

	if m.Ept01 != nil {
		add("ept/01", m.Ept01)
	}
	if m.Ept12 != nil {
		add("ept/12", m.Ept12)
	}
	if m.Ept02 != nil {
		add("ept/02", m.Ept02)
	}

	// For the x86 port the "lapic/..." names and words are byte-identical
	// to the format from before ports existed.
	irq := func(name string, l ports.IRQController) {
		if l != nil {
			add(m.Cfg.Port.IRQSectionPrefix()+"/"+name, l)
		}
	}
	for c := 0; c < nctx; c++ {
		irq(fmt.Sprintf("ctx%d", c), m.Core.LAPIC(cpu.ContextID(c)))
	}
	if m.VcpuL1 != nil {
		irq("l1", m.VcpuL1.VirtLAPIC)
	}
	if m.VcpuSVt != nil {
		irq("svt", m.VcpuSVt.VirtLAPIC)
	}
	if m.VC12 != nil {
		irq("vc12", m.VC12.VirtLAPIC)
	}
	irq("l2", m.L2LAPIC())
	vcpu := func(name string, vc *hv.VCPU) {
		if vc != nil {
			add("vcpu/"+name, vc)
		}
	}
	vcpu("l1", m.VcpuL1)
	vcpu("svt", m.VcpuSVt)
	vcpu("vc12", m.VC12)
	if m.Ns != nil {
		vcpu("l2", m.Ns.L2VCPU)
	}

	add("mem/host", m.HostMem)
	if io == nil {
		io = &machine.IOStack{}
	}
	if io.Disk != nil {
		add("blk/disk", io.Disk)
	}
	queue := func(name string, q *virtio.Queue) {
		if q != nil {
			add("vq/"+name, q)
		}
	}
	if env := io.L2Env; env != nil {
		if env.Net != nil {
			queue("l2-net-tx", env.Net.TX)
			queue("l2-net-rx", env.Net.RX)
		}
		if env.Blk != nil {
			queue("l2-blk", env.Blk.Q)
		}
	}
	if io.L1NetDrv != nil {
		queue("l1-net-tx", io.L1NetDrv.TX)
		queue("l1-net-rx", io.L1NetDrv.RX)
	}
	if io.L1BlkDrv != nil {
		queue("l1-blk", io.L1BlkDrv.Q)
	}
	if io.L1Net != nil {
		queue("l1-dev-net-tx", io.L1Net.Queue(virtio.NetQTX))
		queue("l1-dev-net-rx", io.L1Net.Queue(virtio.NetQRX))
	}
	if io.L1Blk != nil {
		queue("l1-dev-blk", io.L1Blk.Queue(0))
	}
	if io.L0Net != nil {
		queue("l0-dev-net-tx", io.L0Net.Queue(virtio.NetQTX))
		queue("l0-dev-net-rx", io.L0Net.Queue(virtio.NetQRX))
	}
	if io.L0Blk != nil {
		queue("l0-dev-blk", io.L0Blk.Queue(0))
	}

	if m.Chan != nil {
		add("swsvt", m.SVtThread)
	}
	return es
}

// meta is the machine-shape section: a snapshot restores only into a
// machine of the same mode and context count.
type meta struct {
	mode hv.Mode
	nctx int
}

func (mt meta) SaveWords(w *words.Writer) {
	w.Word(uint64(mt.mode))
	w.Word(uint64(mt.nctx))
}

func (mt meta) LoadWords(r *words.Reader) {
	if mode := r.Word(); r.Err() == nil && mode != uint64(mt.mode) {
		r.Fail(fmt.Errorf("mode mismatch: snapshot %v, machine %v", hv.Mode(mode), mt.mode))
	}
	if n := r.Word(); r.Err() == nil && n != uint64(mt.nctx) {
		r.Fail(fmt.Errorf("context-count mismatch: snapshot %d, machine %d", n, mt.nctx))
	}
}

// Capture serializes the machine's architectural state. io may be nil
// (or an empty stack) for machines without wired I/O. Each section is
// recorded once into exactly sized storage (words.Writer.Record), whose
// logical word count equals what sizing counts, so Size stays equal to
// Bytes.
func Capture(m *machine.Machine, io *machine.IOStack) *Snapshot {
	es := plan(m, io)
	snap := &Snapshot{Sections: make([]Section, len(es))}
	var w words.Writer
	for i, e := range es {
		snap.Sections[i] = Section{Name: e.name, Words: w.Record(e.c.SaveWords)}
	}
	return snap
}

// Size reports Capture(m, io).Bytes() without building the image: it
// walks the same plan on sizing writers, and page and EPT sections count
// themselves without copying state out. Migration prices its transfers
// from this.
func Size(m *machine.Machine, io *machine.IOStack) int {
	n := 0
	sizer := words.NewSizer()
	for _, e := range plan(m, io) {
		sizer.Reset()
		e.c.SaveWords(sizer)
		n += sectionBytes(e.name, sizer.Len())
	}
	return n
}

// Restore writes a snapshot's state back into the machine. The machine
// must present the identical plan (same mode, same wired devices); the
// section count and every section name are checked before anything is
// loaded, so a structural mismatch leaves the machine untouched. A
// malformed word inside a section is an error too: that section is left
// untouched, but sections before it are already loaded — callers treat
// that as a failed migration attempt.
func Restore(m *machine.Machine, io *machine.IOStack, snap *Snapshot) error {
	es := plan(m, io)
	if len(es) != len(snap.Sections) {
		return fmt.Errorf("snapshot: machine wants %d sections, snapshot has %d", len(es), len(snap.Sections))
	}
	for i, e := range es {
		if name := snap.Sections[i].Name; name != e.name {
			return fmt.Errorf("snapshot: section %d is %q, machine wants %q", i, name, e.name)
		}
	}
	for i, e := range es {
		r := words.NewReader(e.name, snap.Sections[i].Words)
		e.c.LoadWords(r)
		if err := r.Fin(); err != nil {
			return err
		}
	}
	return nil
}

// RoundTrip captures, restores, and re-captures, returning both digests.
// Equal digests are the restore-fidelity guarantee the migration state
// machine relies on; the differential harness asserts it at every
// migrate point.
func RoundTrip(m *machine.Machine, io *machine.IOStack) (before, after uint64, err error) {
	snap := Capture(m, io)
	if err := Restore(m, io, snap); err != nil {
		return snap.Digest(), 0, err
	}
	return snap.Digest(), Capture(m, io).Digest(), nil
}
