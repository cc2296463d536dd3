package workload

import (
	"math/rand"
	"slices"

	"svtsim/internal/guest"
	"svtsim/internal/sim"
)

// DiskBench models ioping (latency: 512 B accesses) and fio (bandwidth:
// 4 KB blocks) in their random-read and random-write configurations
// (§6.2): a closed loop of synchronous block operations.
type DiskBench struct {
	N       int
	Size    int // bytes per access (512 for ioping, 4096 for fio)
	Write   bool
	Sectors uint64 // addressable range of the benchmark file
	Rng     *rand.Rand
	SMP     bool

	Lat     []float64 // per-op latency, microseconds
	Bytes   uint64
	Elapsed sim.Time
}

// Run is the guest body.
func (w *DiskBench) Run(env *guest.Env) {
	if w.Sectors == 0 {
		w.Sectors = 4096
	}
	if w.SMP {
		prev := env.Port.IRQHandler
		env.Port.IRQHandler = func(vec int) {
			prev(vec)
			SMPWake(env)
		}
	}
	// One buffer serves the whole run: writes send its pattern, and reads
	// fill it (a run never mixes the two).
	data := make([]byte, w.Size)
	for i := range data {
		data[i] = byte(i)
	}
	span := w.Sectors - uint64(w.Size)/512
	w.Lat = slices.Grow(w.Lat, w.N)
	start := env.Now()
	for i := 0; i < w.N; i++ {
		sector := uint64(0)
		if w.Rng != nil && span > 0 {
			sector = uint64(w.Rng.Int63n(int64(span)))
		}
		t0 := env.Now()
		if w.Write {
			if !env.Blk.Write(sector, data) {
				panic("diskbench: write failed")
			}
		} else {
			if !env.Blk.Read(sector, data) {
				panic("diskbench: read failed")
			}
		}
		w.Lat = append(w.Lat, (env.Now() - t0).Microseconds())
		w.Bytes += uint64(w.Size)
	}
	w.Elapsed = env.Now() - start
}

// ThroughputKBs reports the achieved bandwidth in KB/s (fio's unit).
func (w *DiskBench) ThroughputKBs() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Bytes) / 1024 / w.Elapsed.Seconds()
}
