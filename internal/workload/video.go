package workload

import (
	"math"
	"math/rand"

	"svtsim/internal/guest"
	"svtsim/internal/sim"
)

// Video models the §6.3.3 soft-realtime experiment: mplayer playing the
// first five minutes of a 4K movie repackaged at 24/60/120 FPS, counting
// dropped frames. Decode runs against a vsync deadline while the player
// streams the file from the virtio disk in the background; every disk
// completion steals interrupt-chain time (acknowledge, EOI, IPI wake —
// all trapped and reflected in a nested guest) from the decode budget, so
// timer and interrupt delivery overhead under nested virtualization
// decides how many marginal frames survive. At 24 FPS the slack absorbs
// everything; at 120 FPS it does not — exactly the paper's Figure 10.
type Video struct {
	FPS    int
	Frames int
	Rng    *rand.Rand
	SMP    bool

	// MeanDecode is the mean per-frame decode cost (roughly constant
	// across the HFR repackagings: the same pixels per frame).
	MeanDecode sim.Time
	JitterFrac float64
	// Scene cuts and I-frames have a heavy-tailed decode cost: with
	// SpikeProb a frame takes SpikeBase + Exp(SpikeTau) longer. Whether
	// such a marginal frame misses vsync depends on the interrupt and
	// timer overhead the virtualization stack adds to the frame.
	SpikeProb float64
	SpikeBase sim.Time
	SpikeTau  sim.Time
	// Streaming: async 4 KB reads per second of playback (the 4K bitrate).
	ReadsPerSec int

	Dropped int
	Played  int
}

// NewVideo builds the workload for the given frame rate over 5 minutes.
func NewVideo(fps int, rng *rand.Rand) *Video {
	return &Video{
		FPS:         fps,
		Frames:      fps * 300, // 5 minutes
		Rng:         rng,
		SMP:         true,
		MeanDecode:  7900 * sim.Microsecond,
		JitterFrac:  0.002,
		SpikeProb:   0.008,
		SpikeBase:   250 * sim.Microsecond,
		SpikeTau:    30 * sim.Microsecond,
		ReadsPerSec: 96,
	}
}

// decodeTime draws a frame's decode cost.
func (w *Video) decodeTime() sim.Time {
	base := float64(w.MeanDecode)
	jitter := (w.Rng.Float64() + w.Rng.Float64() - 1) * w.JitterFrac * base
	d := base + jitter
	if w.Rng.Float64() < w.SpikeProb {
		u := w.Rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		d += float64(w.SpikeBase) + float64(w.SpikeTau)*-mathLog(u)
	}
	return sim.Time(d)
}

func mathLog(x float64) float64 { return math.Log(x) }

// Run is the guest body.
func (w *Video) Run(env *guest.Env) {
	if w.SMP {
		prev := env.Port.IRQHandler
		env.Port.IRQHandler = func(vec int) {
			prev(vec)
			SMPWake(env)
		}
	}
	period := sim.Second / sim.Time(w.FPS)

	// Background streaming: async reads paced at ReadsPerSec; completion
	// interrupts preempt the decoder and their (reflected) handling chains
	// eat into the frame budget.
	readGap := sim.Second / sim.Time(w.ReadsPerSec)
	nextRead := env.Now()
	sector := uint64(0)
	// The decoder never looks at the streamed bytes, so every read in
	// flight fills the same buffer.
	discard := make([]byte, 4096)
	pump := func() {
		for env.Now() >= nextRead {
			nextRead += readGap
			sector = (sector + 8) % (1 << 20)
			env.Blk.Submit(false, sector, discard, nil)
		}
	}

	next := env.Now() + period
	for i := 0; i < w.Frames; i++ {
		pump()
		env.Compute(w.decodeTime())
		if env.Now() > next {
			// Missed vsync: drop frames until back in phase.
			for env.Now() > next && i < w.Frames {
				w.Dropped++
				next += period
				i++
			}
			continue
		}
		// Present: sleep until vsync via the (virtualized) deadline timer.
		env.Timer.WaitUntil(next)
		w.Played++
		next += period
	}
}
