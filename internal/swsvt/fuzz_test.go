package swsvt

import "testing"

// FuzzRing drives a trap slot with a fuzzer-chosen push/pop script and
// checks it against a one-command model: a push onto an empty slot
// queues its trap identifier, a push onto a full one panics, a pop takes
// the queued identifier or reports an empty slot. After every step the
// slot's words must load back into an equal slot.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 1, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := TrapSlot()
		var full bool
		var exit, pushes uint64
		for i, b := range script {
			if b&1 == 0 { // push
				id := uint64(b >> 1)
				if full {
					if !panics(func() { s.Push(id) }) {
						t.Fatalf("step %d: push onto a full slot did not panic", i)
					}
				} else {
					s.Push(id)
					full, exit = true, id
					pushes++
				}
			} else { // pop
				got, ok := s.Pop()
				if ok != full || ok && got != exit {
					t.Fatalf("step %d: pop = %d,%v, model %d,%v", i, got, ok, exit, full)
				}
				full = false
			}
			if cmd, id, ok := s.Queued(); ok != full || cmd != cmdVMTrap || ok && id != exit || s.pushes != pushes {
				t.Fatalf("step %d: slot %+v, model full=%v exit=%d pushes=%d", i, s, full, exit, pushes)
			}
			if got, err := loadSlot(TrapSlot(), saveSlot(&s)); err != nil || got != s {
				t.Fatalf("step %d: words round trip gave %+v (%v), want %+v", i, got, err, s)
			}
		}
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
