// Package mem models physical memory. Address spaces in the simulated
// machine (host physical memory, each VM's guest-physical memory) are
// sparse: the testbed in the paper's Table 4 has 128 GB of host RAM and
// VMs with 50/35 GB, but workloads touch only a tiny fraction, so pages
// are materialized on first write.
package mem

import "fmt"

// PageSize is the granularity of backing allocation and of EPT mappings.
const PageSize = 4096

// Memory is a sparse byte-addressable physical address space.
// Reads of never-written pages return zeros, like fresh DRAM after the
// hypervisor's zeroing.
type Memory struct {
	size  uint64
	pages map[uint64]*[PageSize]byte
}

// New returns a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{size: size, pages: make(map[uint64]*[PageSize]byte)}
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
	for len(p) > 0 {
		pageIdx := addr / PageSize
		off := addr % PageSize
		n := PageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		if pg := m.pages[pageIdx]; pg != nil {
			copy(p[:n], pg[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				p[i] = 0
			}
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
	for len(p) > 0 {
		pageIdx := addr / PageSize
		off := addr % PageSize
		n := PageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		pg := m.pages[pageIdx]
		if pg == nil {
			pg = new([PageSize]byte)
			m.pages[pageIdx] = pg
		}
		copy(pg[off:off+n], p[:n])
		p = p[n:]
		addr += n
	}
	return nil
}
