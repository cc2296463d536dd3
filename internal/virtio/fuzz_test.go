package virtio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"svtsim/internal/ept"
	"svtsim/internal/mem"
)

// FuzzVirtqueue drives a driver/device queue pair over shared memory with
// a fuzzer-chosen operation sequence, checking that no chain is lost or
// reordered, that payload bytes survive the descriptor indirection, and
// that both handles' DESIGN §6 invariants hold after every step. Bytes
// from corruptUsed up make the device publish a corrupt used entry, which
// the driver must reject without moving.
func FuzzVirtqueue(f *testing.F) {
	f.Add([]byte{0, 2, 3, 4})
	f.Add([]byte{0, 1, 0, 2, 3, 2, 3, 4, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 3, 4, 0})
	f.Add([]byte{0, 1, 2, 3, 0xF0, 0xF1, 0xF2, 4, 0xF3, 2, 0xF4, 0xF5, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		host := mem.New(1 << 22)
		tbl := ept.New("fuzz")
		if err := tbl.Map(0, 0, 1<<22, ept.PermRW); err != nil {
			t.Fatal(err)
		}
		m := ept.NewView(host, tbl)
		l := NewLayout(0x1000, 8)
		driver, err := NewQueue(l, m, true)
		if err != nil {
			t.Fatal(err)
		}
		device, err := NewQueue(l, m, false)
		if err != nil {
			t.Fatal(err)
		}

		const bufLen = 64
		next := uint64(0x8000) // bump allocator; never reused mid-run
		pattern := func(seed byte) []byte {
			p := make([]byte, bufLen)
			for i := range p {
				p[i] = seed + byte(i)*3
			}
			return p
		}

		type posted struct {
			head uint16
			seed byte
			n    int
		}
		var avail, inflight, used []posted
		free := int(l.Size)

		sweep := func(step int) {
			t.Helper()
			for _, q := range []*Queue{driver, device} {
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}

		for step, b := range script {
			if b >= corruptUsed {
				corruptUsedEntry(t, m, driver, b)
				sweep(step)
				continue
			}
			switch b % 5 {
			case 0, 1: // post a 1- or 2-buffer chain
				n := int(b%5) + 1
				seed := byte(step)
				var chain []Buf
				for i := 0; i < n; i++ {
					gpa := next
					next += bufLen
					if err := m.Write(gpa, pattern(seed+byte(i))); err != nil {
						t.Fatal(err)
					}
					chain = append(chain, Buf{GPA: gpa, Len: bufLen})
				}
				head, err := driver.Post(chain)
				if free < n {
					if err != ErrQueueFull {
						t.Fatalf("step %d: post with %d free accepted %d bufs (err=%v)", step, free, n, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: post failed with %d free: %v", step, free, err)
				}
				free -= n
				avail = append(avail, posted{head: head, seed: seed, n: n})

			case 2: // device consumes the next available chain
				head, bufs, ok, err := device.PopAvail()
				if err != nil {
					t.Fatalf("step %d: popavail: %v", step, err)
				}
				if len(avail) == 0 {
					if ok {
						t.Fatalf("step %d: popavail invented chain %d", step, head)
					}
					continue
				}
				if !ok {
					t.Fatalf("step %d: popavail missed a published chain", step)
				}
				want := avail[0]
				avail = avail[1:]
				if head != want.head || len(bufs) != want.n {
					t.Fatalf("step %d: got head %d (%d bufs), want head %d (%d bufs)",
						step, head, len(bufs), want.head, want.n)
				}
				for i, buf := range bufs {
					data := make([]byte, buf.Len)
					if err := m.Read(buf.GPA, data); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, pattern(want.seed+byte(i))) {
						t.Fatalf("step %d: payload corrupted through descriptor chain", step)
					}
				}
				inflight = append(inflight, want)

			case 3: // device completes the oldest in-flight chain
				if len(inflight) == 0 {
					continue
				}
				done := inflight[0]
				inflight = inflight[1:]
				if err := device.PushUsed(done.head, bufLen*uint32(done.n)); err != nil {
					t.Fatalf("step %d: pushused: %v", step, err)
				}
				used = append(used, done)

			case 4: // driver reaps one completion
				head, length, ok, err := driver.PopUsed()
				if err != nil {
					t.Fatalf("step %d: popused: %v", step, err)
				}
				if len(used) == 0 {
					if ok {
						t.Fatalf("step %d: popused invented completion %d", step, head)
					}
					continue
				}
				if !ok {
					t.Fatalf("step %d: popused missed a published completion", step)
				}
				want := used[0]
				used = used[1:]
				if head != want.head || length != bufLen*uint32(want.n) {
					t.Fatalf("step %d: completion mismatch: got (%d,%d), want (%d,%d)",
						step, head, length, want.head, bufLen*want.n)
				}
				free += want.n
			}
			sweep(step)
		}
	})
}

const corruptUsed = 0xF0

// corruptUsedEntry puts a corrupt entry where driver's next PopUsed reads,
// publishing it if the ring has nothing unreaped, checks that PopUsed
// rejects it and leaves the driver as it was, and then restores the
// ring. b%3 picks the corruption: an id past the table, an id that is
// only in range when truncated to 16 bits, or an id whose descriptor
// links to itself with NEXT set.
func corruptUsedEntry(t *testing.T, m MemIO, driver *Queue, b byte) {
	t.Helper()
	l := driver.L
	slot := l.Used + 4 + uint64(driver.lastUsed%l.Size)*8
	saved := []struct {
		gpa uint64
		p   []byte
	}{{l.Used + 2, make([]byte, 2)}, {slot, make([]byte, 8)}, {l.Desc, make([]byte, 16)}}
	for _, r := range saved {
		if err := m.Read(r.gpa, r.p); err != nil {
			t.Fatal(err)
		}
	}
	write := func(gpa uint64, p []byte) {
		if err := m.Write(gpa, p); err != nil {
			t.Fatal(err)
		}
	}
	id := uint32(l.Size) + uint32(b&0x0F)
	switch b % 3 {
	case 1:
		id = uint32(b) << 16
	case 2:
		id = 0
		write(l.Desc+12, []byte{byte(DescFNext), 0, 0, 0}) // flags, next=0
	}
	if driver.lastUsed == binary.LittleEndian.Uint16(saved[0].p) {
		write(l.Used+2, binary.LittleEndian.AppendUint16(nil, driver.lastUsed+1))
	}
	write(slot, binary.LittleEndian.AppendUint32(nil, id))
	lastUsed, freeHead, numFree := driver.lastUsed, driver.freeHead, driver.numFree
	if _, _, _, err := driver.PopUsed(); err == nil {
		t.Fatalf("PopUsed accepted corrupt used id %#x", id)
	}
	if driver.lastUsed != lastUsed || driver.freeHead != freeHead || driver.numFree != numFree {
		t.Fatalf("rejected used id %#x moved the driver", id)
	}
	for _, r := range saved {
		write(r.gpa, r.p)
	}
}
