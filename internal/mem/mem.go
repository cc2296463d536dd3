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

// page is the header of a page that holds a nonzero byte: for each line,
// 1 + its index in the line store, or 0 for an absent line, which reads
// as zeros. It holds no pointers, so the GC never scans it.
type page [linesPerPage]uint32

// zeroLine is what an absent line reads as. Nothing writes to it.
var zeroLine line

// chunkLen is how many lines or page headers one store chunk holds: a
// first touch costs a fraction of a malloc.
const chunkLen = 16

// Memory is a sparse byte-addressable physical address space.
// Reads of never-written pages return zeros, like fresh DRAM after the
// hypervisor's zeroing.
//
// Any Write materializes the pages it touches: the page set is simulated
// state, which snapshots carry and migration prices. A page gets a
// header only once a nonzero byte is written to it, and inside a page a
// 256-byte line is backed only once a nonzero byte is written to it.
type Memory struct {
	size uint64
	// pages maps each materialized page's index to 1 + its header's
	// index in heads, or to 0 for a page that reads as all zeros. It is
	// nil until the first Write, so a memory nothing writes costs no map.
	pages map[uint32]uint32
	// order holds the page indices ascending when it is as long as
	// pages. Pages are only ever added, so a capture sorts at most
	// once, and only after a page was added since the last one.
	order []uint32
	// The header and line stores: chunks of chunkLen, filled in turn
	// and never moved, so an index into a store stays valid.
	heads [][]page
	lines [][]line
}

// New returns a memory of the given size in bytes. It panics if the
// space has more than 2³² pages, the most a page index can name.
func New(size uint64) *Memory {
	if (size+PageSize-1)/PageSize > 1<<32 {
		panic(fmt.Sprintf("mem: a %#x-byte space has more than 2^32 pages", size))
	}
	return &Memory{size: size}
}

// add appends a zero element to the chunked store *s and returns
// 1 + its index.
func add[T any](s *[][]T) uint32 {
	if n := len(*s); n == 0 || len((*s)[n-1]) == chunkLen {
		*s = append(*s, make([]T, 0, chunkLen))
	}
	n := len(*s)
	c := &(*s)[n-1]
	*c = (*c)[:len(*c)+1]
	return uint32((n-1)*chunkLen + len(*c))
}

// head returns the header with index h-1; line returns the line with
// index l-1.
func (m *Memory) head(h uint32) *page { h--; return &m.heads[h/chunkLen][h%chunkLen] }
func (m *Memory) line(l uint32) *line { l--; return &m.lines[l/chunkLen][l%chunkLen] }

// newHead gives page idx a header and returns it.
func (m *Memory) newHead(idx uint32) *page {
	h := add(&m.heads)
	m.pages[idx] = h
	return m.head(h)
}

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
	var pg *page // nil while in a page with no header
	for first := true; len(p) > 0; first = false {
		if first || addr%PageSize == 0 {
			pg = nil
			if h := m.pages[uint32(addr/PageSize)]; h != 0 {
				pg = m.head(h)
			}
		}
		off := addr % lineSize
		n := min(lineSize-off, uint64(len(p)))
		if l := addr % PageSize / lineSize; pg != nil && pg[l] != 0 {
			copy(p[:n], m.line(pg[l])[off:])
		} else {
			clear(p[:n])
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
	var idx uint32
	var pg *page // nil while in a page with no header
	for first := true; len(p) > 0; first = false {
		if first || addr%PageSize == 0 {
			idx = uint32(addr / PageSize)
			h, ok := m.pages[idx]
			if !ok {
				if m.pages == nil {
					m.pages = make(map[uint32]uint32)
				}
				m.pages[idx] = 0
			}
			pg = nil
			if h != 0 {
				pg = m.head(h)
			}
		}
		off := addr % lineSize
		n := min(lineSize-off, uint64(len(p)))
		l := addr % PageSize / lineSize
		if (pg == nil || pg[l] == 0) && !bytes.Equal(p[:n], zeroLine[:n]) {
			if pg == nil {
				pg = m.newHead(idx)
			}
			pg[l] = add(&m.lines)
		}
		if pg != nil && pg[l] != 0 {
			copy(m.line(pg[l])[off:], p[:n])
		}
		p = p[n:]
		addr += n
	}
	return nil
}
