package virtio

import (
	"fmt"

	"svtsim/internal/fault"
	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

// MMIO register layout of the device window (virtio-mmio flavoured).
// Drivers program queue addresses through these registers at boot; each
// write is a trapped access, so a nested guest's device probe generates
// the realistic storm of reflected exits.
const (
	RegQueueNotify uint64 = 0x00 // write: queue index to kick
	RegQueueSel    uint64 = 0x10 // select queue for the registers below
	RegQueueSize   uint64 = 0x18
	RegQueueDesc   uint64 = 0x20
	RegQueueAvail  uint64 = 0x28
	RegQueueUsed   uint64 = 0x30
	RegQueueReady  uint64 = 0x38 // write 1: queue becomes live
	RegIntrAck     uint64 = 0x40 // driver acknowledges the device interrupt
)

// MaxQueues per device.
const MaxQueues = 4

// DeviceCommon implements the shared MMIO transport of a virtio device
// backend: queue configuration registers and kick dispatch.
type DeviceCommon struct {
	DevName string
	Base    uint64
	Mem     MemIO

	// Eng, when set, routes completion notifications through the fault
	// plane (virtio/complete site); nil keeps the device fault-free.
	Eng *sim.Engine

	sel     int
	staging [MaxQueues]Layout
	queues  [MaxQueues]*Queue

	// OnKick is invoked with the queue index for notify writes.
	OnKick func(q int)

	Kicks uint64

	// obsT, when non-nil, receives kick/complete instants on obsTrack
	// (the devices track, normally).
	obsT     *obs.Tracer
	obsTrack int
	obsLabel obs.Label
}

// SetObs attaches the observability tracer (nil detaches).
func (c *DeviceCommon) SetObs(t *obs.Tracer, track int) {
	c.obsT = t
	c.obsTrack = track
	c.obsLabel = t.Intern(c.DevName)
}

// obsInstant records a device event when tracing is armed. The virtual
// clock comes from Eng, so devices without an engine stay silent.
func (c *DeviceCommon) obsInstant(k obs.Kind, a1, a2 uint64) {
	if c.obsT != nil && c.Eng != nil {
		c.obsT.Instant(c.obsTrack, k, obs.LevelNone, c.obsLabel,
			c.Eng.Now(), a1, a2)
	}
}

// ObsComplete is called by backends when completion processing raised
// the guest interrupt.
func (c *DeviceCommon) ObsComplete(n uint64) {
	c.obsInstant(obs.KindVirtioComplete, n, 0)
}

// notify routes a host-completion notification through the fault plane:
// a delay re-raises it later, a drop loses this edge entirely. fn is the
// backend's NotifyHost hook and must be non-nil.
func (c *DeviceCommon) notify(fn func()) {
	if c.Eng != nil {
		out := c.Eng.Inject(fault.SiteVirtioComplete)
		if out.Drop {
			return
		}
		if out.Delay > 0 {
			c.Eng.After(out.Delay, fn)
			return
		}
	}
	fn()
}

// Queue returns the live device-side queue at index i (nil before ready).
func (c *DeviceCommon) Queue(i int) *Queue {
	if i < 0 || i >= MaxQueues {
		return nil
	}
	return c.queues[i]
}

// MMIOWrite implements hv.Device.
func (c *DeviceCommon) MMIOWrite(gpa, val uint64) {
	off := gpa - c.Base
	switch off {
	case RegQueueNotify:
		c.Kicks++
		c.obsInstant(obs.KindVirtioKick, val, c.Kicks)
		if c.OnKick != nil {
			c.OnKick(int(val))
		}
	case RegQueueSel:
		if int(val) < MaxQueues {
			c.sel = int(val)
		}
	case RegQueueSize:
		c.staging[c.sel].Size = uint16(val)
	case RegQueueDesc:
		c.staging[c.sel].Desc = val
	case RegQueueAvail:
		c.staging[c.sel].Avail = val
	case RegQueueUsed:
		c.staging[c.sel].Used = val
	case RegQueueReady:
		if val == 1 {
			q, err := NewQueue(c.staging[c.sel], c.Mem, false)
			if err != nil {
				panic(fmt.Sprintf("virtio %s: queue %d: %v", c.DevName, c.sel, err))
			}
			c.queues[c.sel] = q
		} else {
			c.queues[c.sel] = nil
		}
	case RegIntrAck:
		// Interrupt acknowledged; nothing to do in the model.
	default:
		// Unknown registers are ignored, as devices do.
	}
}

// ConfigureQueue is the driver-side probe sequence: program one queue's
// geometry and enable it. exec performs one trapped MMIO write.
func ConfigureQueue(exec func(addr, val uint64), base uint64, idx int, l Layout) {
	exec(base+RegQueueSel, uint64(idx))
	exec(base+RegQueueSize, uint64(l.Size))
	exec(base+RegQueueDesc, l.Desc)
	exec(base+RegQueueAvail, l.Avail)
	exec(base+RegQueueUsed, l.Used)
	exec(base+RegQueueReady, 1)
}
