package check

import "math/rand"

// opWeight is one row of the generator's op mix.
type opWeight struct {
	kind   OpKind
	weight int
}

// genMix is tuned toward the exit-heavy ops the paper's protocols
// accelerate, with enough I/O, timer, and interrupt traffic mixed in to
// exercise the emergent nested paths (reflected MSR writes arming the
// platform timer, §5.3 blocked-delivery IPIs, virtqueue kicks).
var genMix = []opWeight{
	{OpCPUID, 25},
	{OpHypercall, 10},
	{OpMSR, 10},
	{OpCompute, 10},
	{OpTimer, 10},
	{OpNetPing, 10},
	{OpNetRR, 5},
	{OpBlkRead, 8},
	{OpBlkWrite, 7},
	{OpIPI, 5},
	{OpSMPWake, 5},
}

// Generate emits the deterministic schedule for a seed: same seed, same
// schedule, forever. Roughly one even seed in seven enables a low
// recoverable wakeup-drop fault rate, and every odd seed a heavy one,
// because transparency must survive the watchdog/breaker recovery
// machinery too.
func Generate(seed int64) *Schedule {
	r := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, VCPUs: 1 + r.Intn(2)}
	// The core count derives from the seed value itself, not the rng
	// stream: pre-existing seeds keep their exact op sequences, and every
	// third seed additionally routes its IPIs across a multi-core host.
	if seed%3 == 0 {
		s.Cores = 2 + int(seed/3%3)
	}
	if r.Intn(7) == 0 {
		s.WakeupDropRate = 0.05 + 0.15*r.Float64()
	}
	// Like the core count, the heavy rate derives from the seed value:
	// 0.3 (DESIGN §8's acceptance rate) up to 0.9, which trips the
	// breaker within a few reflections.
	if seed&1 == 1 {
		s.WakeupDropRate = float64(3+uint64(seed)/2%7) / 10
	}
	total := 0
	for _, w := range genMix {
		if w.kind == OpSMPWake && s.VCPUs < 2 {
			continue
		}
		total += w.weight
	}
	n := 4 + r.Intn(16)
	for i := 0; i < n; i++ {
		pick := r.Intn(total)
		var kind OpKind
		for _, w := range genMix {
			if w.kind == OpSMPWake && s.VCPUs < 2 {
				continue
			}
			if pick < w.weight {
				kind = w.kind
				break
			}
			pick -= w.weight
		}
		s.Ops = append(s.Ops, Op{Kind: kind, A: uint64(r.Intn(1 << 12)), B: uint64(r.Intn(1 << 12))})
	}
	// Interrupt-flavored ops (IPI injection, timer arming) can leave a
	// vector pending at the moment the previous op completes; a trailing
	// CPUID burst forces more guest instruction boundaries so every mode
	// drains its pending set before guest-done.
	s.Ops = append(s.Ops, Op{Kind: OpCPUID, A: 1})
	// Every multi-core seed also live-migrates its gang mid-run. Like
	// the core count, the point and the forced-failure budget derive from
	// the seed value, not the rng stream, so pre-existing seeds keep
	// their exact op sequences. Fails cycles through a clean move, one
	// retry, and (Fails = 3, the host's attempt budget) a forced rollback.
	if s.Cores > 1 {
		// seed%9 is 0, 3, or 6 for multi-core seeds; map to 0, 1, 3.
		fails := 0
		switch seed % 9 {
		case 3:
			fails = 1
		case 6:
			fails = 3
		}
		s.Migrate = []MigratePoint{{
			After: int(uint64(seed) / 3 % uint64(len(s.Ops))),
			Fails: fails,
		}}
	}
	return s
}
