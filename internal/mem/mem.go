// Package mem models physical memory. Address spaces in the simulated
// machine (host physical memory, each VM's guest-physical memory) are
// sparse: the testbed in the paper's Table 4 has 128 GB of host RAM and
// VMs with 50/35 GB, but workloads touch only a tiny fraction, so pages
// are materialized on first write. Where each VM's RAM and device
// windows sit is a fixed layout (package machine's constants, mapped by
// the EPTs); nothing allocates address ranges at run time.
package mem

import (
	"bytes"
	"fmt"
)

// PageSize is the granularity of the materialized page set and of EPT
// mappings.
const PageSize = 4096

// lineSize is the granularity of backing allocation inside a page.
const (
	lineSize     = 256
	linesPerPage = PageSize / lineSize
)

type line [lineSize]byte

// page backs one materialized page; a nil line reads as zeros.
type page [linesPerPage]*line

// zeroLine is what an absent line reads as. Nothing writes to it.
var zeroLine line

// Memory is a sparse byte-addressable physical address space.
// Reads of never-written pages return zeros, like fresh DRAM after the
// hypervisor's zeroing.
//
// Any Write materializes the pages it touches: the page set is simulated
// state, which snapshots carry and migration prices. Inside a page, a
// 256-byte line is backed only once a nonzero byte is written to it.
type Memory struct {
	size  uint64
	pages map[uint64]*page
	// order holds the page indices ascending when it is as long as
	// pages. Pages are only ever added, so a capture sorts at most
	// once, and only after a page was added since the last one.
	order []uint64
	// Slabs that lines and page headers are carved from, so a first
	// touch costs a fraction of a malloc.
	lines []line
	heads []page
}

// New returns a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{size: size, pages: make(map[uint64]*page)}
}

// carve returns the next element of *slab, refilling it n at a time.
func carve[T any](slab *[]T, n int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, n)
	}
	x := &(*slab)[0]
	*slab = (*slab)[1:]
	return x
}

func (m *Memory) newLine() *line { return carve(&m.lines, 16) }
func (m *Memory) newPage() *page { return carve(&m.heads, 8) }

// Size reports the size of the address space in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) check(addr uint64, n int) error {
	if n < 0 || addr+uint64(n) > m.size || addr+uint64(n) < addr {
		return fmt.Errorf("mem: access [%#x,%#x) outside %#x-byte space", addr, addr+uint64(n), m.size)
	}
	return nil
}

// Probe reports the error an n-byte access at addr would fail with,
// moving no data. Physical memory has no permissions, so write does not
// matter; it is there so Memory serves as a device's DMA target.
func (m *Memory) Probe(addr uint64, n uint32, write bool) error { return m.check(addr, int(n)) }

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	var pg *page
	for first := true; len(p) > 0; first = false {
		if first || addr%PageSize == 0 {
			pg = m.pages[addr/PageSize]
		}
		off := addr % lineSize
		n := min(lineSize-off, uint64(len(p)))
		var ln *line
		if pg != nil {
			ln = pg[addr%PageSize/lineSize]
		}
		if ln == nil {
			clear(p[:n])
		} else {
			copy(p[:n], ln[off:])
		}
		p = p[n:]
		addr += n
	}
	return nil
}

// Write copies p into memory starting at addr.
func (m *Memory) Write(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	var pg *page
	for first := true; len(p) > 0; first = false {
		if first || addr%PageSize == 0 {
			idx := addr / PageSize
			if pg = m.pages[idx]; pg == nil {
				pg = m.newPage()
				m.pages[idx] = pg
			}
		}
		off := addr % lineSize
		n := min(lineSize-off, uint64(len(p)))
		ln := &pg[addr%PageSize/lineSize]
		if *ln == nil && !bytes.Equal(p[:n], zeroLine[:n]) {
			*ln = m.newLine()
		}
		if *ln != nil {
			copy((*ln)[off:], p[:n])
		}
		p = p[n:]
		addr += n
	}
	return nil
}
