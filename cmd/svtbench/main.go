// Command svtbench regenerates the tables and figures of "Using SMT to
// Accelerate Nested Virtualization" (ISCA'19) on the simulated testbed.
//
// Usage:
//
//	svtbench -all            regenerate everything (full-length runs)
//	svtbench -all -quick     regenerate everything with shortened runs
//	svtbench -all -parallel=4  fan independent experiment cells out to 4 workers
//	svtbench -table 1        one table (1, 3 or 4)
//	svtbench -figure 7       one figure (6–10)
//	svtbench -micro channels the §6.1 communication-channel study
//	svtbench -profile        the §6.2/§6.3 exit-reason profiles
//	svtbench -trace trace.json  write a Perfetto timeline of a representative run
//
// Experiment cells are independent (each owns its engine and RNG
// streams), so -parallel=N changes wall-clock time only: the output is
// byte-identical for every N. The simulator's own speed is measured by
// the benchmark under bench/ (see bench/README.md).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"svtsim"
	"svtsim/internal/parallel"
)

// quickIters is the per-op iteration count of Table 1 and Figure 6
// under -quick (full runs use 2000).
const quickIters = 400

// sections assembles the selected report sections, each an
// independently renderable chunk of -all output, in presentation order,
// all rendered from one session.
func sections(sess *svtsim.Session, all bool, table, figure int, micro string, profile bool, n int, quick bool, root string) []func(io.Writer) {
	var secs []func(io.Writer)
	add := func(sel bool, run func(io.Writer)) {
		if sel {
			secs = append(secs, run)
		}
	}
	add(all || table == 1, func(w io.Writer) { sess.Table1(w, n) })
	add(all || table == 3, func(w io.Writer) { sess.Table3(w, root) })
	add(all || table == 4, sess.Table4)
	add(all || figure == 6, func(w io.Writer) { sess.Figure6(w, n) })
	add(all || figure == 7, func(w io.Writer) { sess.Figure7(w, quick) })
	add(all || figure == 8, func(w io.Writer) { sess.Figure8(w, quick) })
	add(all || figure == 9, func(w io.Writer) { sess.Figure9(w, quick) })
	add(all || figure == 10, func(w io.Writer) { sess.Figure10(w, quick) })
	add(all || micro == "channels", func(w io.Writer) { sess.Channels(w, quick) })
	add(all || profile, sess.Profiles)
	return secs
}

// renderAll renders every section concurrently into its own buffer on
// the session's worker pool, then writes the buffers in presentation
// order. Sections themselves fan their cells out on the same width, so
// small sections do not serialize behind big ones.
func renderAll(w io.Writer, sess *svtsim.Session, secs []func(io.Writer)) {
	bufs := parallel.MapN(sess.Parallelism(), len(secs), func(i int) []byte {
		var b bytes.Buffer
		secs[i](&b)
		return b.Bytes()
	})
	for _, b := range bufs {
		w.Write(b)
	}
}

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate every table and figure")
		quick    = flag.Bool("quick", false, "shortened runs")
		table    = flag.Int("table", 0, "regenerate one table (1, 3, 4)")
		figure   = flag.Int("figure", 0, "regenerate one figure (6-10)")
		micro    = flag.String("micro", "", "micro study to run (channels)")
		profile  = flag.Bool("profile", false, "exit-reason profiles (6.2/6.3)")
		root     = flag.String("root", ".", "repository root (for Table 3 line counts)")
		workers  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool width for independent experiment cells (1 = serial)")
		traceOut = flag.String("trace", "", "write a Perfetto timeline of a representative SW-SVt run to this file")
	)
	flag.Parse()

	w := os.Stdout
	n := 2000
	if *quick {
		n = quickIters
	}

	if *traceOut != "" {
		if err := writeTraceArtifact(*traceOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*all && *table == 0 && *figure == 0 && *micro == "" && !*profile {
			return
		}
	}

	sess := svtsim.NewSession()
	sess.SetParallelism(*workers)
	secs := sections(sess, *all, *table, *figure, *micro, *profile, n, *quick, *root)
	if len(secs) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; try -all, -table N, -figure N, -micro channels, -profile or -trace FILE")
		flag.Usage()
		os.Exit(2)
	}
	renderAll(w, sess, secs)
}

// writeTraceArtifact runs one representative experiment — SW-SVt netperf
// TCP_RR, the richest event mix (nested exits, ring traffic, IRQs,
// virtio) — with the observability plane armed, and serializes the
// timeline as Chrome trace-event JSON. The run itself is byte-identical
// to an untraced one; only the artifact is extra.
func writeTraceArtifact(path string, quick bool) error {
	n := 500
	if quick {
		n = 100
	}
	sess := svtsim.NewSession()
	sess.SetObs(&svtsim.ObsOptions{})
	r := sess.NetLatency(svtsim.SWSVt, n)
	plane := sess.LastObs()
	if plane == nil {
		return fmt.Errorf("svtbench: trace run captured no observability plane")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plane.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: netperf TCP_RR (sw-svt, n=%d, mean %.1f us): %d events -> %s\n",
		n, r.MeanUs, plane.Tracer.Total(), path)
	return nil
}
