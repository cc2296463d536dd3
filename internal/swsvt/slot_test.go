package swsvt

import (
	"slices"
	"strings"
	"testing"

	"svtsim/internal/words"
)

// saveSlot returns s's snapshot words.
func saveSlot(s *Slot) []uint64 {
	st := new(words.Writer).Record(s.SaveWords)
	rd := words.NewReader("slot", st)
	ws := make([]uint64, st.Len())
	for i := range ws {
		ws[i] = rd.Word()
	}
	return ws
}

// loadSlot loads ws into a copy of into and returns the copy and the
// reader's verdict.
func loadSlot(into Slot, ws []uint64) (Slot, error) {
	rd := words.NewReader("slot", new(words.Writer).Record(func(w *words.Writer) {
		for _, x := range ws {
			w.Word(x)
		}
	}))
	into.LoadWords(rd)
	return into, rd.Fin()
}

// TestRingWordsRoundTrip: a full and an empty slot each survive a save
// and load in the command ring's words: head, tail and pushes, the
// occupancy, and a queued command's type, sequence number (head) and
// trap identifier. The slots are empty wherever the simulator captures a
// machine; this pins the words of one that is not.
func TestRingWordsRoundTrip(t *testing.T) {
	full := TrapSlot()
	for i := uint64(0); i < 3; i++ {
		full.Push(40 + i)
		full.Pop()
	}
	full.Push(7)
	ws := saveSlot(&full)
	if want := []uint64{3, 4, 4, 1, cmdVMTrap, 3, 7}; !slices.Equal(ws, want) {
		t.Fatalf("full slot words %v, want %v", ws, want)
	}
	got, err := loadSlot(TrapSlot(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatalf("loaded %+v, want %+v", got, full)
	}
	if exit, ok := got.Pop(); !ok || exit != 7 {
		t.Fatalf("pop after load = %d,%v, want 7,true", exit, ok)
	}

	empty := ResumeSlot()
	empty.Push(0)
	empty.Pop()
	ws = saveSlot(&empty)
	if want := []uint64{1, 1, 1, 0}; !slices.Equal(ws, want) {
		t.Fatalf("empty slot words %v, want %v", ws, want)
	}
	if got, err = loadSlot(ResumeSlot(), ws); err != nil || got != empty {
		t.Fatalf("loaded %+v (%v), want %+v", got, err, empty)
	}
}

// TestSlotLoadRejects: LoadWords refuses every word set a one-command
// slot cannot hold, and leaves the slot untouched.
func TestSlotLoadRejects(t *testing.T) {
	cases := []struct {
		name string
		ws   []uint64
		want string
	}{
		{"tail-not-pushes", []uint64{3, 4, 5, 1, cmdVMTrap, 3, 7}, "inconsistent"},
		{"two-commands", []uint64{2, 4, 4, 2, cmdVMTrap, 2, 7, cmdVMTrap, 3, 8}, "inconsistent"},
		{"count-not-tail-less-head", []uint64{4, 4, 4, 1, cmdVMTrap, 4, 7}, "inconsistent"},
		{"empty-head-behind", []uint64{3, 4, 4, 0}, "inconsistent"},
		{"resume-toward-thread", []uint64{3, 4, 4, 1, cmdVMResume, 3, 0}, "type=2 seq=3"},
		{"no-command", []uint64{3, 4, 4, 1, 0, 3, 7}, "type=0 seq=3"},
		{"seq-not-head", []uint64{3, 4, 4, 1, cmdVMTrap, 2, 7}, "type=1 seq=2"},
		{"truncated-command", []uint64{3, 4, 4, 1, cmdVMTrap, 3}, "claims 1 elements"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := TrapSlot()
			before.Push(9)
			got, err := loadSlot(before, c.ws)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
			if got != before {
				t.Fatalf("rejected load changed the slot: %+v, want %+v", got, before)
			}
		})
	}
}
