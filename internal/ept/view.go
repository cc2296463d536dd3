package ept

import (
	"fmt"

	"svtsim/internal/mem"
)

// View is a guest-physical window onto a backing physical memory through
// a table: the accessor a hypervisor (or a vhost backend) uses to reach a
// guest's buffers. Accesses that hit device regions or unmapped pages
// fail with the corresponding EPT error.
type View struct {
	Mem   *mem.Memory
	Table *Table
}

// NewView wraps backing memory m with table t.
func NewView(m *mem.Memory, t *Table) *View { return &View{Mem: m, Table: t} }

func (v *View) each(gpa uint64, n int, need Perm, f func(hpa uint64, off, chunk int) error) error {
	if n < 0 {
		return fmt.Errorf("ept view: negative length")
	}
	done := 0
	for done < n {
		a := gpa + uint64(done)
		hpa, err := v.Table.Translate(a, need)
		if err != nil {
			return err
		}
		chunk := int(mem.PageSize - a%mem.PageSize)
		if chunk > n-done {
			chunk = n - done
		}
		if err := f(hpa, done, chunk); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// Read copies len(p) bytes from guest-physical gpa into p.
func (v *View) Read(gpa uint64, p []byte) error {
	return v.each(gpa, len(p), PermR, func(hpa uint64, off, chunk int) error {
		return v.Mem.Read(hpa, p[off:off+chunk])
	})
}

// Write copies p to guest-physical gpa.
func (v *View) Write(gpa uint64, p []byte) error {
	return v.each(gpa, len(p), PermW, func(hpa uint64, off, chunk int) error {
		return v.Mem.Write(hpa, p[off:off+chunk])
	})
}

// Probe reports the error an n-byte read (or, with write, write) at gpa
// would fail with, translating every page it spans but moving no data.
func (v *View) Probe(gpa uint64, n uint32, write bool) error {
	need := PermR
	if write {
		need = PermW
	}
	return v.each(gpa, int(n), need, func(hpa uint64, _, chunk int) error {
		return v.Mem.Probe(hpa, uint32(chunk), write)
	})
}
