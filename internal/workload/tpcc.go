package workload

import (
	"math/rand"

	"svtsim/internal/guest"
	"svtsim/internal/sim"
)

// TPCC models the sysbench TPC-C workload over a PostgreSQL-style
// database (Figure 9): a closed loop of transactions, each mixing CPU
// work with synchronous reads and WAL/heap writes against the virtio
// disk. The standard transaction mix is approximated by its I/O and CPU
// footprint per transaction type.
type TPCC struct {
	Duration sim.Time
	Rng      *rand.Rand
	SMP      bool

	Committed uint64
	Elapsed   sim.Time
}

// Transaction profiles: page reads, page writes (heap+WAL), CPU time.
type txnProfile struct {
	name   string
	weight int
	reads  int
	writes int
	cpu    sim.Time
}

var tpccMix = []txnProfile{
	{"new-order", 45, 100, 60, 900 * sim.Microsecond},
	{"payment", 43, 40, 30, 400 * sim.Microsecond},
	{"order-status", 4, 60, 0, 300 * sim.Microsecond},
	{"delivery", 4, 120, 80, 1100 * sim.Microsecond},
	{"stock-level", 4, 140, 0, 700 * sim.Microsecond},
}

func (w *TPCC) pick() txnProfile {
	n := 0
	for _, t := range tpccMix {
		n += t.weight
	}
	r := w.Rng.Intn(n)
	for _, t := range tpccMix {
		if r < t.weight {
			return t
		}
		r -= t.weight
	}
	return tpccMix[0]
}

// Run is the guest body.
func (w *TPCC) Run(env *guest.Env) {
	if w.SMP {
		prev := env.Port.IRQHandler
		env.Port.IRQHandler = func(vec int) {
			prev(vec)
			SMPWake(env)
		}
	}
	const pages = 8192 // database pages addressable by the benchmark
	start := env.Now()
	deadline := start + w.Duration
	page := make([]byte, 4096) // written at commit
	buf := make([]byte, 4096)  // filled by buffer-pool misses
	for env.Now() < deadline {
		t := w.pick()
		// Buffer pool: most reads hit memory; cold pages hit the disk.
		for i := 0; i < t.reads; i++ {
			env.Compute(8 * sim.Microsecond) // buffer manager
			// The dataset dwarfs the buffer pool (Table 4 runs a full TPC-C
			// database); most page accesses miss to the virtio disk.
			if w.Rng.Float64() < 0.80 {
				sector := uint64(w.Rng.Intn(pages)) * 8
				if !env.Blk.Read(sector, buf) {
					panic("tpcc: read failed")
				}
			}
		}
		env.Compute(t.cpu)
		// WAL flush + heap writes at commit.
		for i := 0; i < t.writes; i++ {
			sector := uint64(w.Rng.Intn(pages)) * 8
			if !env.Blk.Write(sector, page) {
				panic("tpcc: write failed")
			}
		}
		w.Committed++
	}
	w.Elapsed = env.Now() - start
}

// KTpm reports throughput in thousands of transactions per minute
// (Figure 9's unit).
func (w *TPCC) KTpm() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Committed) / w.Elapsed.Seconds() * 60 / 1000
}
