package blk

import (
	"bytes"
	"testing"

	"svtsim/internal/mem"
	"svtsim/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	guest := mem.New(1 << 20)
	data := []byte("turtles all the way down")
	padded := make([]byte, 512)
	copy(padded, data)
	if err := guest.Write(0x1000, padded); err != nil {
		t.Fatal(err)
	}

	okW := false
	d.Submit(true, 4, guest, 0x1000, 512, func(ok bool) { okW = ok })
	eng.Drain(100)
	if !okW {
		t.Fatal("write failed")
	}
	// The read lands at a guest address whose 512 bytes straddle a page.
	const dst = 3*mem.PageSize - 100
	okR := false
	d.Submit(false, 4, guest, dst, 512, func(ok bool) { okR = ok })
	eng.Drain(100)
	if !okR {
		t.Fatal("read failed")
	}
	got := make([]byte, 512)
	if err := guest.Read(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, padded) {
		t.Fatalf("round trip mismatch")
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("counters = %d/%d", d.Reads, d.Writes)
	}
}

// The data moves at the completion event, not at submit: a write takes
// the bytes the buffer holds when the disk finishes, and a read's bytes
// appear in guest memory only then.
func TestDataMovesAtCompletion(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	guest := mem.New(1 << 20)
	if err := guest.Write(0, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	d.Submit(true, 0, guest, 0, 512, func(bool) {})
	if err := guest.Write(0, bytes.Repeat([]byte{2}, 512)); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100)
	if got, _ := d.ReadSync(0, 512); !bytes.Equal(got, bytes.Repeat([]byte{2}, 512)) {
		t.Fatalf("disk holds %x..., want the buffer's bytes at completion", got[:4])
	}
	d.Submit(false, 0, guest, 4096, 512, func(bool) {})
	got := make([]byte, 512)
	if err := guest.Read(4096, got); err != nil || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatalf("read data in guest memory before completion: %x... (%v)", got[:4], err)
	}
	eng.Drain(100)
	if err := guest.Read(4096, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 512)) {
		t.Fatalf("read data after completion = %x... (%v)", got[:4], err)
	}
}

func TestServiceLatency(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	var doneAt sim.Time
	d.Submit(false, 0, mem.New(1<<20), 0, 4096, func(bool) { doneAt = eng.Now() })
	eng.Drain(100)
	want := d.ReadBase + sim.Time(4096/d.BytesPerSec*float64(sim.Second))
	if doneAt != want {
		t.Fatalf("read completed at %v, want %v", doneAt, want)
	}
}

func TestSerialService(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	guest := mem.New(1 << 20)
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(false, uint64(i), guest, uint64(i)*512, 512, func(bool) {
			order = append(order, i)
			times = append(times, eng.Now())
		})
	}
	eng.Drain(100)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	// Serial device: completions are spaced by at least the service time.
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("completions not serialized: %v", times)
	}
}

func TestOutOfCapacity(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 4096)
	okResult := true
	d.Submit(false, 100, mem.New(1<<20), 0, 512, func(ok bool) { okResult = ok })
	eng.Drain(100)
	if okResult {
		t.Fatal("read beyond capacity must fail")
	}
	if d.Errors != 1 {
		t.Fatalf("errors = %d", d.Errors)
	}
}

// An access is in range only if its sector is. A sector of 2^55 or more
// scaled by the sector size wraps past 2^64, so bounding the scaled
// offset alone would let it read (or write) the start of the disk.
func TestSectorBounds(t *testing.T) {
	const capacity = 1 << 20
	for _, tc := range []struct {
		name   string
		sector uint64
		n      uint32
		ok     bool
	}{
		{"first", 0, 512, true},
		{"last", capacity/SectorSize - 1, 512, true},
		{"empty at end", capacity / SectorSize, 0, true},
		{"past end", capacity / SectorSize, 512, false},
		{"straddles end", capacity/SectorSize - 1, 1024, false},
		{"2^54 past end", 1 << 54, 512, false},
		{"2^55 wraps to 0", 1 << 55, 512, false},
		{"2^55+1 wraps to 512", 1<<55 + 1, 512, false},
		{"max wraps below 0", ^uint64(0), 512, false},
	} {
		for _, write := range []bool{false, true} {
			eng := sim.New()
			d := NewDisk(eng, "t", capacity)
			if err := d.store.Write(0, bytes.Repeat([]byte{0xab}, 1024)); err != nil {
				t.Fatal(err)
			}
			guest := mem.New(1 << 16)
			fill := bytes.Repeat([]byte{0xcd}, 1024)
			if err := guest.Write(0, fill); err != nil {
				t.Fatal(err)
			}
			got := !tc.ok
			d.Submit(write, tc.sector, guest, 0, tc.n, func(ok bool) { got = ok })
			eng.Drain(100)
			if got != tc.ok {
				t.Errorf("%s (write=%v): Submit ok=%v, want %v", tc.name, write, got, tc.ok)
			}
			if tc.ok {
				continue
			}
			// A rejected request moves no data either way.
			img, _ := d.ReadSync(0, 1024)
			buf := make([]byte, 1024)
			_ = guest.Read(0, buf)
			if !bytes.Equal(img, bytes.Repeat([]byte{0xab}, 1024)) || !bytes.Equal(buf, fill) {
				t.Errorf("%s (write=%v): a rejected request moved data", tc.name, write)
			}
		}
		if _, err := NewDisk(sim.New(), "t", capacity).ReadSync(tc.sector, int(tc.n)); (err == nil) != tc.ok {
			t.Errorf("%s: ReadSync err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSyncHelpers(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	if err := d.store.Write(2*SectorSize, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadSync(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("sync round trip failed")
	}
	if _, err := d.ReadSync(1<<20/SectorSize, 1); err == nil {
		t.Fatal("sync read beyond capacity must fail")
	}
}
