package report

import (
	"bytes"
	"testing"

	"svtsim/internal/exp"
)

// render runs fn once per pool width, each on a fresh session of that
// width, and returns the outputs.
func render(t *testing.T, widths []int, fn func(*Renderer, *bytes.Buffer)) [][]byte {
	t.Helper()
	var outs [][]byte
	for _, w := range widths {
		s := exp.NewSession()
		s.SetParallelism(w)
		var b bytes.Buffer
		fn(NewRenderer(s), &b)
		if b.Len() == 0 {
			t.Fatalf("width %d produced no output", w)
		}
		outs = append(outs, b.Bytes())
	}
	return outs
}

// TestFigure6ParallelMatchesSerial pins the fan-out determinism contract
// on the Figure 6 mode sweep: the rendered bytes are identical for every
// pool width.
func TestFigure6ParallelMatchesSerial(t *testing.T) {
	outs := render(t, []int{1, 4, 16}, func(rr *Renderer, b *bytes.Buffer) { rr.Figure6(b, 100) })
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("Figure 6 output diverged between pool widths:\nserial:\n%s\nparallel:\n%s",
				outs[0], outs[i])
		}
	}
}

// TestFigure7ParallelMatchesSerial does the same for the 18-cell I/O
// grid (the heaviest sweep in -all).
func TestFigure7ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 7 cells are slow")
	}
	outs := render(t, []int{1, 8}, func(rr *Renderer, b *bytes.Buffer) { rr.Figure7(b, true) })
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("Figure 7 output diverged between pool widths:\nserial:\n%s\nparallel:\n%s",
			outs[0], outs[1])
	}
}

// TestChannelsParallelMatchesSerial covers the §6.1 channel-study
// cross-product, which fans out inside exp.ChannelStudy.
func TestChannelsParallelMatchesSerial(t *testing.T) {
	outs := render(t, []int{1, 8}, func(rr *Renderer, b *bytes.Buffer) { rr.Channels(b, true) })
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("channel study diverged between pool widths:\nserial:\n%s\nparallel:\n%s",
			outs[0], outs[1])
	}
}
