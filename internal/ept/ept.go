// Package ept models extended page tables: the hardware-walked mapping
// from guest-physical to host-physical addresses, including the
// "misconfigured" entries hypervisors deliberately install over device
// windows so that MMIO accesses exit with EPT_MISCONFIG (the dominant
// exit reason in the paper's I/O profiles, §6.2–§6.3).
//
// Nested virtualization composes two levels: L1 builds an EPT mapping
// L2-physical to L1-physical, and L0 folds it with its own L1-physical to
// host-physical EPT into the shadow EPT actually walked by hardware
// (vmcs02). Compose implements that fold.
package ept

import (
	"fmt"

	"svtsim/internal/mem"
)

// Perm is an access-permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// WalkLevels is the depth of the hardware page-table walk; nested
// configurations multiply walk cost (two-dimensional walks).
const WalkLevels = 4

// MisconfigError reports an access to a deliberately misconfigured
// (device) region; the Dev field identifies the owning device model.
type MisconfigError struct {
	GPA uint64
	Dev uint64
}

func (e *MisconfigError) Error() string {
	return fmt.Sprintf("ept: misconfig at %#x (device %d)", e.GPA, e.Dev)
}

// ViolationError reports an access to an unmapped or permission-violating
// address.
type ViolationError struct {
	GPA  uint64
	Need Perm
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("ept: violation at %#x (need %s)", e.GPA, e.Need)
}

// entry is one guest frame's mapping packed into a word: the host frame
// number above bit 8, a present bit, and the permissions in the low
// byte. The zero entry is an unmapped frame.
type entry uint64

const entryPresent entry = 1 << 8

func mkEntry(hostPage uint64, perm Perm) entry {
	return entry(hostPage<<9) | entryPresent | entry(perm)
}

func (e entry) mapped() bool     { return e&entryPresent != 0 }
func (e entry) hostPage() uint64 { return uint64(e >> 9) }
func (e entry) perm() Perm       { return Perm(e) }

// maxGPA bounds the guest-physical range a table can map (64 GB). A
// table is a dense array indexed by guest frame number, so its highest
// mapped frame sets its size.
const maxGPA = 1 << 36

type devRegion struct {
	base, size uint64
	dev        uint64
}

// Table is one extended page table. The zero value is not usable;
// construct with New.
type Table struct {
	name    string
	pages   []entry // indexed by guest frame number
	mapped  int     // present entries in pages
	devs    []devRegion
	epoch   uint64 // bumped by Invalidate, lets cached walks detect staleness
	walkCnt uint64
}

// New returns an empty table with a diagnostic name (e.g. "ept01").
func New(name string) *Table {
	return &Table{name: name}
}

// Name returns the table's diagnostic name.
func (t *Table) Name() string { return t.name }

// Epoch returns the invalidation epoch; it changes on every Invalidate.
func (t *Table) Epoch() uint64 { return t.epoch }

// Walks reports how many translations have been performed (for cost
// accounting and tests).
func (t *Table) Walks() uint64 { return t.walkCnt }

// Map installs a gpa→hpa mapping of size bytes with the given
// permissions. All of gpa, hpa and size must be page aligned.
func (t *Table) Map(gpa, hpa, size uint64, perm Perm) error {
	if gpa%mem.PageSize != 0 || hpa%mem.PageSize != 0 || size%mem.PageSize != 0 || size == 0 {
		return fmt.Errorf("ept %s: unaligned map gpa=%#x hpa=%#x size=%#x", t.name, gpa, hpa, size)
	}
	if gpa >= maxGPA || size > maxGPA-gpa {
		return fmt.Errorf("ept %s: map gpa=%#x size=%#x beyond the %#x guest-physical range", t.name, gpa, size, uint64(maxGPA))
	}
	gfn, hostPage, n := gpa/mem.PageSize, hpa/mem.PageSize, size/mem.PageSize
	t.grow(gfn + n)
	for i := uint64(0); i < n; i++ {
		t.set(gfn+i, mkEntry(hostPage+i, perm))
	}
	return nil
}

// grow extends the page array to cover frames below end.
func (t *Table) grow(end uint64) {
	if end > uint64(len(t.pages)) {
		t.pages = append(t.pages, make([]entry, end-uint64(len(t.pages)))...)
	}
}

// set stores e at frame gfn (within the array), keeping the mapped count.
func (t *Table) set(gfn uint64, e entry) {
	if t.pages[gfn].mapped() {
		t.mapped--
	}
	if e.mapped() {
		t.mapped++
	}
	t.pages[gfn] = e
}

// lookup returns the entry for frame gfn; frames past the array are
// unmapped.
func (t *Table) lookup(gfn uint64) entry {
	if gfn < uint64(len(t.pages)) {
		return t.pages[gfn]
	}
	return 0
}

// Unmap removes mappings over [gpa, gpa+size).
func (t *Table) Unmap(gpa, size uint64) error {
	if gpa%mem.PageSize != 0 || size%mem.PageSize != 0 {
		return fmt.Errorf("ept %s: unaligned unmap", t.name)
	}
	for gfn := gpa / mem.PageSize; gfn < (gpa+size)/mem.PageSize && gfn < uint64(len(t.pages)); gfn++ {
		t.set(gfn, 0)
	}
	return nil
}

// MapMisconfig marks [gpa, gpa+size) as a device window: any access exits
// with EPT_MISCONFIG carrying dev.
func (t *Table) MapMisconfig(gpa, size, dev uint64) error {
	if size == 0 {
		return fmt.Errorf("ept %s: empty misconfig region", t.name)
	}
	t.devs = append(t.devs, devRegion{base: gpa, size: size, dev: dev})
	return nil
}

// DeviceAt reports the device owning gpa, if any.
func (t *Table) DeviceAt(gpa uint64) (uint64, bool) {
	for _, d := range t.devs {
		if gpa >= d.base && gpa < d.base+d.size {
			return d.dev, true
		}
	}
	return 0, false
}

// Translate walks the table for a single access at gpa needing perm
// permissions, returning the host-physical address.
func (t *Table) Translate(gpa uint64, need Perm) (uint64, error) {
	t.walkCnt++
	if dev, ok := t.DeviceAt(gpa); ok {
		return 0, &MisconfigError{GPA: gpa, Dev: dev}
	}
	e := t.lookup(gpa / mem.PageSize)
	if !e.mapped() || e.perm()&need != need {
		return 0, &ViolationError{GPA: gpa, Need: need}
	}
	return e.hostPage()*mem.PageSize + gpa%mem.PageSize, nil
}

// Invalidate models INVEPT: it bumps the epoch so that any cached
// translations must be re-walked.
func (t *Table) Invalidate() { t.epoch++ }

// MappedPages reports the number of mapped pages.
func (t *Table) MappedPages() int { return t.mapped }

// DeviceRegions reports the number of device (misconfigured) regions.
func (t *Table) DeviceRegions() int { return len(t.devs) }

// Compose builds the shadow table inner∘outer: for every page mapped by
// inner (gpaInner→gpaOuter) it walks outer (gpaOuter→hpa) and installs
// gpaInner→hpa with the intersection of permissions. Device regions of
// the inner table are preserved (they must keep trapping in the composed
// table), and inner pages that land on an outer device region become
// device regions too, in guest-frame order.
func Compose(name string, inner, outer *Table) (*Table, error) {
	out := &Table{name: name, pages: make([]entry, len(inner.pages))}
	for gfn, e := range inner.pages {
		if !e.mapped() {
			continue
		}
		gpa := uint64(gfn) * mem.PageSize
		if dev, ok := outer.DeviceAt(e.hostPage() * mem.PageSize); ok {
			if err := out.MapMisconfig(gpa, mem.PageSize, dev); err != nil {
				return nil, err
			}
			continue
		}
		oe := outer.lookup(e.hostPage())
		if !oe.mapped() {
			return nil, &ViolationError{GPA: e.hostPage() * mem.PageSize, Need: PermR}
		}
		out.set(uint64(gfn), mkEntry(oe.hostPage(), e.perm()&oe.perm()))
	}
	for _, d := range inner.devs {
		out.devs = append(out.devs, d)
	}
	return out, nil
}
