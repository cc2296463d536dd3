package blk

import (
	"bytes"
	"testing"

	"svtsim/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	data := []byte("turtles all the way down")
	padded := make([]byte, 512)
	copy(padded, data)

	okW := false
	d.Submit(true, 4, padded, func(ok bool, _ []byte) { okW = ok })
	eng.Drain(100)
	if !okW {
		t.Fatal("write failed")
	}
	var got []byte
	d.Submit(false, 4, make([]byte, 512), func(ok bool, read []byte) {
		if !ok {
			t.Fatal("read failed")
		}
		got = read
	})
	eng.Drain(100)
	if !bytes.Equal(got, padded) {
		t.Fatalf("round trip mismatch")
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("counters = %d/%d", d.Reads, d.Writes)
	}
}

func TestServiceLatency(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	var doneAt sim.Time
	d.Submit(false, 0, make([]byte, 4096), func(bool, []byte) { doneAt = eng.Now() })
	eng.Drain(100)
	want := d.ReadBase + sim.Time(4096/d.BytesPerSec*float64(sim.Second))
	if doneAt != want {
		t.Fatalf("read completed at %v, want %v", doneAt, want)
	}
}

func TestSerialService(t *testing.T) {
	eng := sim.New()
	d := NewDisk(eng, "t", 1<<20)
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(false, uint64(i), make([]byte, 512), func(bool, []byte) {
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
	d.Submit(false, 100, make([]byte, 512), func(ok bool, _ []byte) { okResult = ok })
	eng.Drain(100)
	if okResult {
		t.Fatal("read beyond capacity must fail")
	}
	if d.Errors != 1 {
		t.Fatalf("errors = %d", d.Errors)
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
