package workload

import (
	"encoding/binary"
	"testing"

	"svtsim/internal/sim"
)

func TestETCDistributions(t *testing.T) {
	etc := NewETC(sim.NewRand(1))
	gets := 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := etc.ValueSize()
		if v < 2 || v > 4000 {
			t.Fatalf("value size %d outside range", v)
		}
		if etc.IsGet() {
			gets++
		}
	}
	ratio := float64(gets) / n
	if ratio < 0.95 || ratio > 0.99 {
		t.Fatalf("GET ratio = %.3f, ETC is GET-dominated (~0.97)", ratio)
	}
}

func TestETCValueSizeTail(t *testing.T) {
	etc := NewETC(sim.NewRand(2))
	big := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if etc.ValueSize() > 500 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("heavy tail fraction = %.3f, want ≈0.10", frac)
	}
}

func TestMemcachedReqEncoding(t *testing.T) {
	p := EncodeMemcachedReq(0xDEADBEEF, true, 321)
	if len(p) != 11 {
		t.Fatalf("len = %d", len(p))
	}
	if binary.LittleEndian.Uint64(p[0:8]) != 0xDEADBEEF {
		t.Fatal("key hash wrong")
	}
	if p[8] != 1 {
		t.Fatal("op wrong")
	}
	if binary.LittleEndian.Uint16(p[9:11]) != 321 {
		t.Fatal("value size wrong")
	}
	p2 := EncodeMemcachedReq(1, false, 0)
	if p2[8] != 0 {
		t.Fatal("set op wrong")
	}
}

func TestTPCCMix(t *testing.T) {
	w := &TPCC{Rng: sim.NewRand(5)}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.pick().name]++
	}
	// The standard TPC-C mix: ~45% new-order, ~43% payment, ~4% each rest.
	if f := float64(counts["new-order"]) / n; f < 0.42 || f > 0.48 {
		t.Fatalf("new-order fraction %.3f", f)
	}
	if f := float64(counts["payment"]) / n; f < 0.40 || f > 0.46 {
		t.Fatalf("payment fraction %.3f", f)
	}
	for _, name := range []string{"order-status", "delivery", "stock-level"} {
		if f := float64(counts[name]) / n; f < 0.02 || f > 0.06 {
			t.Fatalf("%s fraction %.3f", name, f)
		}
	}
}

func TestTPCCKTpm(t *testing.T) {
	w := &TPCC{Committed: 100, Elapsed: sim.Second}
	if got := w.KTpm(); got != 6 { // 100 tx/s = 6000 tpm = 6 ktpm
		t.Fatalf("ktpm = %v, want 6", got)
	}
	w2 := &TPCC{}
	if w2.KTpm() != 0 {
		t.Fatal("zero elapsed must give 0")
	}
}

func TestVideoDecodeDistribution(t *testing.T) {
	w := NewVideo(120, sim.NewRand(9))
	spikes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		d := w.decodeTime()
		if d < sim.Time(float64(w.MeanDecode)*0.9) {
			t.Fatalf("decode %v below plausible floor", d)
		}
		if d > w.MeanDecode+w.SpikeBase/2 {
			spikes++
		}
	}
	frac := float64(spikes) / n
	if frac < 0.004 || frac > 0.02 {
		t.Fatalf("spike fraction %.4f, want ≈%.3f", frac, w.SpikeProb)
	}
}

func TestVideoFrameBudget(t *testing.T) {
	w := NewVideo(120, sim.NewRand(9))
	period := sim.Second / 120
	// The body of the distribution must fit the 120 FPS budget with a thin
	// margin — that is what makes the experiment sensitive to the
	// virtualization overhead.
	if w.MeanDecode >= period {
		t.Fatal("mean decode must fit the frame period")
	}
	slack := period - w.MeanDecode
	if slack > period/8 {
		t.Fatalf("slack %v too generous for a soft-realtime experiment", slack)
	}
}

func TestDiskBenchThroughputUnit(t *testing.T) {
	w := &DiskBench{Bytes: 1024 * 500, Elapsed: sim.Second}
	if got := w.ThroughputKBs(); got != 500 {
		t.Fatalf("KB/s = %v, want 500", got)
	}
	if (&DiskBench{}).ThroughputKBs() != 0 {
		t.Fatal("zero elapsed must give 0")
	}
}
