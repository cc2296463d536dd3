package check

import (
	"bytes"
	"testing"
)

// FuzzScenario decodes fuzzer bytes into a bounded schedule and runs the
// full differential oracle over it: any input the byte-mapper accepts
// must be architecturally equivalent across every mode, and its canonical
// encoding must round-trip.
func FuzzScenario(f *testing.F) {
	f.Add([]byte{0, byte(OpCPUID), 3, 1})
	f.Add([]byte{1, byte(OpSMPWake), 0, 0, byte(OpTimer), 9, 0})
	f.Add([]byte{2, 5, byte(OpHypercall), 12, 0, byte(OpMSR), 5, 5})
	f.Add([]byte{3, 19, byte(OpIPI), 0, 0, byte(OpCompute), 200, 0})
	f.Add([]byte{2, 16, byte(OpNetPing), 1, 0, byte(OpTimer), 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // keep per-input machine runs cheap
		}
		s := fromBytes(data)
		if err := s.validate(); err != nil {
			t.Fatalf("fromBytes produced an invalid schedule: %v", err)
		}
		enc := s.Encode()
		dec, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("encoding is not canonical:\n%q\nvs\n%q", dec.Encode(), enc)
		}
		// The I/O ops dominate run time; the byte-mapper already bounds
		// op count, so a full differential run stays fuzz-friendly.
		if v := CheckSchedule(s, nil); v.Failed() {
			t.Fatalf("fuzzed schedule inequivalent:\n%s\n%s", v, enc)
		}
	})
}

// fromBytes maps arbitrary fuzzer input onto a bounded valid schedule.
// Every byte string decodes to something runnable, which keeps the fuzz
// targets exploring schedule space instead of fighting the parser.
func fromBytes(data []byte) *Schedule {
	s := &Schedule{Seed: 1, VCPUs: 1}
	if len(data) == 0 {
		s.Ops = []Op{{Kind: OpCPUID, A: 1}}
		return s
	}
	ctl := data[0]
	if data[0]&1 != 0 {
		s.VCPUs = 2
	}
	if data[0]&4 != 0 {
		s.Cores = 2 + int(data[0]>>3)%3
	}
	data = data[1:]
	// With faults on, the next byte draws the wakeup-drop rate, from
	// 0.05 up to 1, where every wakeup is lost.
	if ctl&2 != 0 && len(data) > 0 {
		s.WakeupDropRate = float64(1+data[0]%20) / 20
		data = data[1:]
	}
	const maxOps = 12
	for len(data) >= 3 && len(s.Ops) < maxOps {
		kind := OpKind(data[0]) % numOpKinds
		if kind == OpSMPWake && s.VCPUs < 2 {
			kind = OpCPUID
		}
		s.Ops = append(s.Ops, Op{Kind: kind, A: uint64(data[1]), B: uint64(data[2])})
		data = data[3:]
	}
	if len(s.Ops) == 0 {
		s.Ops = []Op{{Kind: OpCPUID, A: 1}}
	}
	// A trailing CPUID flushes interrupts pended by earlier ops so the
	// delivered-IRQ sets are comparable across modes (see gen.go).
	if s.Ops[len(s.Ops)-1].Kind != OpCPUID {
		s.Ops = append(s.Ops, Op{Kind: OpCPUID, A: 1})
	}
	// On multi-core schedules one more control bit schedules a live
	// migration, alternating between a clean move and a forced rollback.
	if s.Cores > 1 && ctl&0x20 != 0 {
		s.Migrate = []MigratePoint{{
			After: int(ctl>>6) % len(s.Ops),
			Fails: 3 * (int(ctl>>7) & 1),
		}}
	}
	return s
}
