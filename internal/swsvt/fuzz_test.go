package swsvt

import "testing"

// FuzzRing drives a command ring with a fuzzer-chosen push/pop sequence
// and checks it against a plain slice model: same accept/reject
// decisions, same FIFO contents, occupancy always within bounds, and
// sequence numbers strictly increasing in push order.
func FuzzRing(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 1, 0, 1, 1})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 1, 1, 1})
	f.Add(uint8(16), []byte{1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		capQ := int(capacity%32) + 1
		r := NewRing(capQ)
		var model []Cmd
		var lastSeq uint64
		seqSeen := false
		for i, b := range script {
			if b&1 == 0 { // push
				c := Cmd{Type: CmdVMTrap, Exit: uint64(i)}
				err := r.Push(c)
				if len(model) == capQ {
					if err != ErrRingFull {
						t.Fatalf("step %d: push on full ring: err=%v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: push on non-full ring failed: %v", i, err)
				}
				c.Seq = r.pushes - 1
				model = append(model, c)
				if seqSeen && c.Seq <= lastSeq {
					t.Fatalf("step %d: sequence numbers not increasing: %d after %d", i, c.Seq, lastSeq)
				}
				lastSeq, seqSeen = c.Seq, true
			} else { // pop
				got, ok := r.Pop()
				if len(model) == 0 {
					if ok {
						t.Fatalf("step %d: pop on empty ring returned %+v", i, got)
					}
					continue
				}
				if !ok {
					t.Fatalf("step %d: pop on non-empty ring returned nothing", i)
				}
				want := model[0]
				model = model[1:]
				if got != want {
					t.Fatalf("step %d: FIFO order broken: got %+v, want %+v", i, got, want)
				}
			}
			if n := r.Len(); n != len(model) || n < 0 || n > capQ {
				t.Fatalf("step %d: occupancy %d, model %d, cap %d", i, n, len(model), capQ)
			}
		}
	})
}
