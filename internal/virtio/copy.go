package virtio

import "svtsim/internal/mem"

// Copier moves bytes between two simulated memories through a scratch
// buffer it owns. No piece of a transfer crosses a page, so the scratch
// grows to the largest transfer seen so far, capped at mem.PageSize, and
// steady-state copies allocate nothing. It is how a device DMAs between
// its own store and a guest buffer, and how a vhost backend's transport
// moves a nested guest's payload into the guest hypervisor's buffers. A
// Copier is not safe for concurrent use; each device or driver owns one.
// The zero Copier is ready and holds no scratch.
type Copier struct{ buf []byte }

// Copy moves n bytes from src at srcGPA to dst at dstGPA. Each piece
// ends at a page boundary of either side, so it crosses no page on
// either. On an error the destination may hold a prefix of the data.
func (c *Copier) Copy(dst MemIO, dstGPA uint64, src MemIO, srcGPA uint64, n uint32) error {
	if want := min(uint64(n), mem.PageSize); uint64(len(c.buf)) < want {
		c.buf = make([]byte, want)
	}
	for n > 0 {
		k := uint64(n)
		k = min(k, mem.PageSize-srcGPA%mem.PageSize, mem.PageSize-dstGPA%mem.PageSize)
		buf := c.buf[:k]
		if err := src.Read(srcGPA, buf); err != nil {
			return err
		}
		if err := dst.Write(dstGPA, buf); err != nil {
			return err
		}
		srcGPA += k
		dstGPA += k
		n -= uint32(k)
	}
	return nil
}
