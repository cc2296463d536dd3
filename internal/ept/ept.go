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
	"slices"

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

// run is one extent of a table: n guest frames from gfn mapped to n
// contiguous host frames from hostPage, all with the same permissions.
type run struct {
	gfn, n, hostPage uint64
	perm             Perm
}

// end returns the first guest frame past the run.
func (r run) end() uint64 { return r.gfn + r.n }

// joins reports whether next continues r in both guest and host frames
// with the same permissions, so the two are one extent.
func (r run) joins(next run) bool {
	return r.end() == next.gfn && r.hostPage+r.n == next.hostPage && r.perm == next.perm
}

// maxGPA bounds the guest-physical range a table can map (64 GB).
const maxGPA = 1 << 36

type devRegion struct {
	base, size uint64
	dev        uint64
}

// Table is one extended page table. The zero value is not usable;
// construct with New.
type Table struct {
	name string
	// runs is sorted by gfn, disjoint and maximally merged: no run
	// joins the next one.
	runs    []run
	mapped  int // Σ runs[i].n
	devs    []devRegion
	walkCnt uint64
}

// New returns an empty table with a diagnostic name (e.g. "ept01").
func New(name string) *Table {
	return &Table{name: name}
}

// Walks reports how many translations have been performed (for cost
// accounting and tests).
func (t *Table) Walks() uint64 { return t.walkCnt }

// Map installs a gpa→hpa mapping of size bytes with the given
// permissions, merging it with contiguous neighbours. All of gpa, hpa
// and size must be page aligned, and the range must not overlap a
// mapped run or a device window; a rejected map leaves the table as it
// was.
func (t *Table) Map(gpa, hpa, size uint64, perm Perm) error {
	if gpa%mem.PageSize != 0 || hpa%mem.PageSize != 0 || size%mem.PageSize != 0 || size == 0 {
		return fmt.Errorf("ept %s: unaligned map gpa=%#x hpa=%#x size=%#x", t.name, gpa, hpa, size)
	}
	if gpa >= maxGPA || size > maxGPA-gpa {
		return fmt.Errorf("ept %s: map gpa=%#x size=%#x beyond the %#x guest-physical range", t.name, gpa, size, uint64(maxGPA))
	}
	r := run{gfn: gpa / mem.PageSize, n: size / mem.PageSize, hostPage: hpa / mem.PageSize, perm: perm}
	i := t.find(r.gfn)
	if i < len(t.runs) && t.runs[i].gfn < r.end() {
		return fmt.Errorf("ept %s: map gpa=%#x size=%#x overlaps the run mapped at gpa=%#x", t.name, gpa, size, t.runs[i].gfn*mem.PageSize)
	}
	for _, d := range t.devs {
		if gpa < d.base+d.size && d.base < gpa+size {
			return fmt.Errorf("ept %s: map gpa=%#x size=%#x overlaps device %d at gpa=%#x", t.name, gpa, size, d.dev, d.base)
		}
	}
	t.mapped += int(r.n)
	if i > 0 && t.runs[i-1].joins(r) {
		i--
		t.runs[i].n += r.n
	} else {
		t.runs = slices.Insert(t.runs, i, r)
	}
	if i+1 < len(t.runs) && t.runs[i].joins(t.runs[i+1]) {
		t.runs[i].n += t.runs[i+1].n
		t.runs = slices.Delete(t.runs, i+1, i+2)
	}
	return nil
}

// find returns the index of the first run ending after frame gfn: the
// run holding gfn if one does, else the first run above it.
func (t *Table) find(gfn uint64) int {
	lo, hi := 0, len(t.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.runs[m].end() <= gfn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lookup returns the run holding frame gfn.
func (t *Table) lookup(gfn uint64) (run, bool) {
	if i := t.find(gfn); i < len(t.runs) && t.runs[i].gfn <= gfn {
		return t.runs[i], true
	}
	return run{}, false
}

// MapMisconfig marks [gpa, gpa+size) as a device window: any access exits
// with EPT_MISCONFIG carrying dev.
func (t *Table) MapMisconfig(gpa, size, dev uint64) error {
	if size == 0 {
		return fmt.Errorf("ept %s: empty misconfig region", t.name)
	}
	if gpa+size < gpa {
		return fmt.Errorf("ept %s: misconfig gpa=%#x size=%#x wraps the address space", t.name, gpa, size)
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

// nextDevicePage returns the first frame at or after gfn whose first
// byte lies in a device region (^0 if none).
func (t *Table) nextDevicePage(gfn uint64) uint64 {
	next := ^uint64(0)
	for _, d := range t.devs {
		first := d.base / mem.PageSize
		if d.base%mem.PageSize != 0 {
			first++
		}
		last := (d.base + d.size - 1) / mem.PageSize // frame holding the last byte
		if first = max(first, gfn); first <= last && first < next {
			next = first
		}
	}
	return next
}

// Translate walks the table for a single access at gpa needing perm
// permissions, returning the host-physical address.
func (t *Table) Translate(gpa uint64, need Perm) (uint64, error) {
	t.walkCnt++
	if dev, ok := t.DeviceAt(gpa); ok {
		return 0, &MisconfigError{GPA: gpa, Dev: dev}
	}
	gfn := gpa / mem.PageSize
	r, ok := t.lookup(gfn)
	if !ok || r.perm&need != need {
		return 0, &ViolationError{GPA: gpa, Need: need}
	}
	return (r.hostPage+gfn-r.gfn)*mem.PageSize + gpa%mem.PageSize, nil
}

// Compose builds the shadow table inner∘outer: for every page mapped by
// inner (gpaInner→gpaOuter) it walks outer (gpaOuter→hpa) and installs
// gpaInner→hpa with the intersection of permissions. Device regions of
// the inner table are preserved (they must keep trapping in the composed
// table), and inner pages that land on an outer device region become
// one-page device regions too, in guest-frame order. Runs are composed
// whole: each emitted piece ends where an inner run, an outer run or an
// outer device window does.
func Compose(name string, inner, outer *Table) (*Table, error) {
	out := &Table{name: name}
	for _, r := range inner.runs {
		for g := r.gfn; g < r.end(); {
			l1 := r.hostPage + g - r.gfn
			dev := outer.nextDevicePage(l1)
			if dev == l1 {
				d, _ := outer.DeviceAt(l1 * mem.PageSize)
				out.devs = append(out.devs, devRegion{base: g * mem.PageSize, size: mem.PageSize, dev: d})
				g++
				continue
			}
			o, ok := outer.lookup(l1)
			if !ok {
				return nil, &ViolationError{GPA: l1 * mem.PageSize, Need: PermR}
			}
			n := min(r.end()-g, o.end()-l1, dev-l1)
			out.appendRun(run{gfn: g, n: n, hostPage: o.hostPage + l1 - o.gfn, perm: r.perm & o.perm})
			g += n
		}
	}
	out.devs = append(out.devs, inner.devs...)
	return out, nil
}

// appendRun adds r above every run of the table, merging it with the
// last one when they join.
func (t *Table) appendRun(r run) {
	t.mapped += int(r.n)
	if k := len(t.runs) - 1; k >= 0 && t.runs[k].joins(r) {
		t.runs[k].n += r.n
		return
	}
	t.runs = append(t.runs, r)
}
