package mem

import (
	"fmt"
	"sort"
)

// Allocator hands out non-overlapping regions of a physical address space.
// The L0 hypervisor uses one to place each VM's RAM and device windows in
// host physical memory; guest hypervisors use one over their own
// guest-physical space.
type Allocator struct {
	limit uint64
	used  []region // sorted by base
}

type region struct{ base, size uint64 }

// NewAllocator manages addresses [0, limit).
func NewAllocator(limit uint64) *Allocator { return &Allocator{limit: limit} }

// Alloc reserves size bytes aligned to align (which must be a power of
// two; 0 means PageSize). It returns the base address.
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	if align == 0 {
		align = PageSize
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %#x not a power of two", align)
	}
	cursor := uint64(0)
	for i := 0; i <= len(a.used); i++ {
		base := (cursor + align - 1) &^ (align - 1)
		var gapEnd uint64
		if i < len(a.used) {
			gapEnd = a.used[i].base
		} else {
			gapEnd = a.limit
		}
		if base+size <= gapEnd && base+size >= base {
			a.used = append(a.used, region{})
			copy(a.used[i+1:], a.used[i:])
			a.used[i] = region{base, size}
			return base, nil
		}
		if i < len(a.used) {
			cursor = a.used[i].base + a.used[i].size
		}
	}
	return 0, fmt.Errorf("mem: out of address space (%d bytes, align %#x)", size, align)
}

// Free releases a region previously returned by Alloc.
func (a *Allocator) Free(base uint64) error {
	i := sort.Search(len(a.used), func(i int) bool { return a.used[i].base >= base })
	if i < len(a.used) && a.used[i].base == base {
		a.used = append(a.used[:i], a.used[i+1:]...)
		return nil
	}
	return fmt.Errorf("mem: free of unallocated base %#x", base)
}
