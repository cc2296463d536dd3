// Package report renders experiment results in the paper's presentation
// format: the tables and figures of the evaluation section, with the
// published numbers alongside for comparison.
package report

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"svtsim/internal/exp"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/parallel"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
)

// Every figure below computes its experiment cells through the parallel
// worker pool and only then renders them in presentation order: each cell
// owns its own engine and RNG streams, so the output is byte-identical to
// a serial run regardless of the pool width (pinned by the tests in
// parallel_test.go).

// Paper-published reference numbers.
var (
	paperTable1 = []struct {
		Stage string
		Us    float64
		Pct   float64
	}{
		{"L2", 0.05, 0.47},
		{"Switch L2<->L0", 0.81, 7.75},
		{"Transform vmcs02/vmcs12", 1.29, 12.45},
		{"L0 handler", 4.89, 47.02},
		{"Switch L0<->L1", 1.40, 13.43},
		{"L1 handler", 1.96, 18.87},
	}
	paperCPUIDTotal = 10.40 // µs
)

func hr(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// Table1 runs the baseline nested cpuid breakdown and prints it next to
// the paper's Table 1.
func (rr *Renderer) Table1(w io.Writer, n int) {
	res := rr.s.CPUIDNested(hv.ModeBaseline, n)
	hr(w, "Table 1: time breakdown for a cpuid instruction in a nested VM")
	total := res.Breakdown.Total()
	perOp := res.PerOp
	fmt.Fprintf(w, "%-28s %10s %8s | %10s %8s\n", "Part", "sim (us)", "sim %", "paper(us)", "paper %")
	for c := sim.Category(0); c < sim.NumCategories; c++ {
		share := float64(res.Breakdown.T[c]) / float64(total)
		us := share * perOp.Microseconds()
		fmt.Fprintf(w, "%-28s %10.2f %7.1f%% | %10.2f %7.1f%%\n",
			c.String(), us, share*100, paperTable1[c].Us, paperTable1[c].Pct)
	}
	fmt.Fprintf(w, "%-28s %10.2f %8s | %10.2f\n", "total", perOp.Microseconds(), "", paperCPUIDTotal)
}

// Table3 counts the lines of the packages that correspond to the
// prototype's code changes, mirroring the paper's Table 3 (LoC summary of
// the QEMU/KVM changes).
func (rr *Renderer) Table3(w io.Writer, root string) {
	hr(w, "Table 3: summary of code changes (this reproduction's analogues)")
	rows := []struct {
		Codebase string
		Dirs     []string
		PaperAdd int
		PaperDel int
	}{
		{"QEMU analogue (device backends, rings)", []string{"internal/virtio", "internal/swsvt"}, 654, 10},
		{"Linux/KVM analogue (hypervisor, SVt core)", []string{"internal/hv", "internal/cpu", "internal/vmcs"}, 2432, 51},
		{"Linux/other analogue (guest kernel, drivers)", []string{"internal/guest", "internal/apic"}, 227, 2},
	}
	fmt.Fprintf(w, "%-46s %10s | %10s %10s\n", "Codebase", "sim LOC", "paper add", "paper del")
	for _, r := range rows {
		loc := 0
		for _, d := range r.Dirs {
			loc += countGoLines(filepath.Join(root, d))
		}
		fmt.Fprintf(w, "%-46s %10d | %10d %10d\n", r.Codebase, loc, r.PaperAdd, r.PaperDel)
	}
	fmt.Fprintln(w, "(sim LOC counts whole modules; the paper counted diffs against stock QEMU/KVM)")
}

func countGoLines(dir string) int {
	total := 0
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		total += strings.Count(string(data), "\n")
		return nil
	})
	return total
}

// Table4 echoes the modelled machine parameters.
func (rr *Renderer) Table4(w io.Writer) {
	hr(w, "Table 4: machine parameters (modelled)")
	fmt.Fprintln(w, "L0   2x Intel E5-2630v3 model (calibrated cost model), 2x64GB RAM, 10Gb NIC model")
	fmt.Fprintln(w, "L1   vCPUs pinned per experiment, virtio-net+vhost, virtio disk @ ramfs model")
	fmt.Fprintln(w, "L2   experiment vCPU + SMP-wake model, virtio-net+vhost, virtio disk @ ramfs model")
}

// Figure6 renders the cpuid latency bars.
func (rr *Renderer) Figure6(w io.Writer, n int) {
	hr(w, "Figure 6: execution time of a cpuid instruction")
	cells := parallel.MapN(rr.s.Parallelism(), 5, func(i int) exp.CPUIDResult {
		switch i {
		case 0:
			return rr.s.CPUIDNative(n)
		case 1:
			return rr.s.CPUIDSingleLevel(n)
		case 2:
			return rr.s.CPUIDNested(hv.ModeBaseline, n)
		case 3:
			return rr.s.CPUIDNested(hv.ModeSWSVt, n)
		default:
			return rr.s.CPUIDNested(hv.ModeHWSVt, n)
		}
	})
	l0, l1, l2, sw, hw := cells[0], cells[1], cells[2], cells[3], cells[4]
	base := l2.PerOp.Microseconds()
	fmt.Fprintf(w, "%-8s %10s %10s | %s\n", "system", "us", "speedup", "paper")
	row := func(r exp.CPUIDResult, paper string) {
		sp := ""
		if r.Label == "SW SVt" || r.Label == "HW SVt" {
			sp = fmt.Sprintf("%.2fx", base/r.PerOp.Microseconds())
		}
		fmt.Fprintf(w, "%-8s %10.2f %10s | %s\n", r.Label, r.PerOp.Microseconds(), sp, paper)
	}
	row(l0, "0.05 us")
	row(l1, "")
	row(l2, "10.40 us")
	row(sw, "1.23x")
	row(hw, "1.94x")
}

// Figure7 renders the six I/O subsystem bars.
func (rr *Renderer) Figure7(w io.Writer, quick bool) {
	hr(w, "Figure 7: speedup of SVt on various I/O subsystems")
	nLat, nBW := 200, 400
	dur := 200 * sim.Millisecond
	if quick {
		nLat, nBW = 60, 100
		dur = 50 * sim.Millisecond
	}
	type bench struct {
		name  string
		run   func(hv.Mode) (val float64, unit string, higher bool)
		paper string
	}
	benches := []bench{
		{"Network latency", func(m hv.Mode) (float64, string, bool) {
			return rr.s.NetLatency(m, nLat).MeanUs, "usec", false
		}, "base 163us, SW 1.10x, HW 2.38x"},
		{"Network bandwidth", func(m hv.Mode) (float64, string, bool) {
			return rr.s.NetBandwidth(m, dur).Mbps, "Mbps", true
		}, "base 9387Mbps, SW 1.00x, HW 1.12x"},
		{"Disk randrd latency", func(m hv.Mode) (float64, string, bool) {
			return rr.s.DiskLatency(m, false, nLat).MeanUs, "usec", false
		}, "base 126us, SW 1.30x, HW 2.18x"},
		{"Disk randrd bandwidth", func(m hv.Mode) (float64, string, bool) {
			return rr.s.DiskBandwidth(m, false, nBW).KBs, "KB/s", true
		}, "base 87136KB/s, SW 1.55x, HW 2.31x"},
		{"Disk randwr latency", func(m hv.Mode) (float64, string, bool) {
			return rr.s.DiskLatency(m, true, nLat).MeanUs, "usec", false
		}, "base 179us, SW 1.05x, HW 2.26x"},
		{"Disk randwr bandwidth", func(m hv.Mode) (float64, string, bool) {
			return rr.s.DiskBandwidth(m, true, nBW).KBs, "KB/s", true
		}, "base 55769KB/s, SW 1.18x, HW 2.60x"},
	}
	modes := []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt}
	type cell struct {
		val    float64
		unit   string
		higher bool
	}
	grid := parallel.MapN(rr.s.Parallelism(), len(benches)*len(modes), func(i int) cell {
		v, u, h := benches[i/len(modes)].run(modes[i%len(modes)])
		return cell{val: v, unit: u, higher: h}
	})
	for bi, b := range benches {
		base := grid[bi*len(modes)]
		swv := grid[bi*len(modes)+1].val
		hwv := grid[bi*len(modes)+2].val
		spd := func(x float64) float64 {
			if base.higher {
				return x / base.val
			}
			return base.val / x
		}
		fmt.Fprintf(w, "%-22s base %9.1f %-5s SW SVt %.2fx  HW SVt %.2fx\n", b.name, base.val, base.unit, spd(swv), spd(hwv))
		fmt.Fprintf(w, "%-22s paper: %s\n", "", b.paper)
	}
}

// Figure8 renders the memcached load sweep.
func (rr *Renderer) Figure8(w io.Writer, quick bool) {
	hr(w, "Figure 8: memcached latency vs request load (ETC workload, SLA 500us)")
	d := 500 * sim.Millisecond
	rates := []float64{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000}
	if quick {
		d = 200 * sim.Millisecond
		rates = []float64{2000, 5000, 8000, 11000}
	}
	fmt.Fprintf(w, "%-10s | %-26s | %-26s\n", "load", "baseline", "SW SVt")
	fmt.Fprintf(w, "%-10s | %12s %12s | %12s %12s\n", "(q/s)", "avg(us)", "p99(us)", "avg(us)", "p99(us)")
	grid := parallel.MapN(rr.s.Parallelism(), len(rates)*2, func(i int) exp.MemcachedResult {
		mode := hv.ModeBaseline
		if i%2 == 1 {
			mode = hv.ModeSWSVt
		}
		return rr.s.Memcached(mode, rates[i/2], d)
	})
	for ri, r := range rates {
		b := grid[ri*2]
		s := grid[ri*2+1]
		mark := func(p99 float64) string {
			if p99 > 500 {
				return "*"
			}
			return " "
		}
		fmt.Fprintf(w, "%-10.0f | %12.0f %11.0f%s | %12.0f %11.0f%s\n",
			r, b.AvgUs, b.P99Us, mark(b.P99Us), s.AvgUs, s.P99Us, mark(s.P99Us))
	}
	fmt.Fprintln(w, "(* = SLA violated; paper: 2.20x higher throughput within SLA on p99, 1.43x on avg)")
}

// Figure9 renders the TPC-C throughput comparison.
func (rr *Renderer) Figure9(w io.Writer, quick bool) {
	hr(w, "Figure 9: throughput for TPC-C + PostgreSQL model")
	d := 2 * sim.Second
	if quick {
		d = 400 * sim.Millisecond
	}
	cells := parallel.MapN(rr.s.Parallelism(), 2, func(i int) float64 {
		if i == 0 {
			return rr.s.TPCC(hv.ModeBaseline, d)
		}
		return rr.s.TPCC(hv.ModeSWSVt, d)
	})
	base, svt := cells[0], cells[1]
	fmt.Fprintf(w, "Baseline  %6.2f ktpm\n", base)
	fmt.Fprintf(w, "SVt       %6.2f ktpm   speedup %.2fx\n", svt, svt/base)
	fmt.Fprintln(w, "paper: baseline 6.37 ktpm, speedup 1.18x")
}

// Figure10 renders the video playback drops.
func (rr *Renderer) Figure10(w io.Writer, quick bool) {
	hr(w, "Figure 10: video playback dropped frames vs frame rate")
	frames := func(fps int) int { return fps * 300 }
	if quick {
		frames = func(fps int) int { return fps * 100 }
	}
	fmt.Fprintf(w, "%-8s %10s %10s %10s | %s\n", "FPS", "baseline", "SW SVt", "ratio", "paper")
	paper := map[int]string{24: "0 / 0", 60: "3 / 0", 120: "40 / 0.65x"}
	fpss := []int{24, 60, 120}
	grid := parallel.MapN(rr.s.Parallelism(), len(fpss)*2, func(i int) exp.VideoResult {
		mode := hv.ModeBaseline
		if i%2 == 1 {
			mode = hv.ModeSWSVt
		}
		fps := fpss[i/2]
		return rr.s.VideoN(mode, fps, frames(fps))
	})
	for fi, fps := range fpss {
		b := grid[fi*2]
		s := grid[fi*2+1]
		ratio := "-"
		if b.Dropped > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(s.Dropped)/float64(b.Dropped))
		}
		fmt.Fprintf(w, "%-8d %10d %10d %10s | %s\n", fps, b.Dropped, s.Dropped, ratio, paper[fps])
	}
}

// Channels renders the §6.1 communication-channel study.
func (rr *Renderer) Channels(w io.Writer, quick bool) {
	hr(w, "Section 6.1: SW SVt communication-channel study (nested cpuid)")
	n := 400
	if quick {
		n = 150
	}
	pts := rr.s.ChannelStudy(n, []sim.Time{0, 5 * sim.Microsecond, 20 * sim.Microsecond})
	fmt.Fprintf(w, "%-8s %-12s %12s %12s\n", "policy", "placement", "workload", "per-op")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s %-12s %12s %12s\n", p.Policy, p.Placement, p.Workload, p.PerOp)
	}
	fmt.Fprintln(w, "(paper: polling offers very little acceleration; mwait gives ~1.23x; NUMA ~10x wake cost)")
}

// Profiles renders the §6.2/§6.3 exit-reason profiles. Exit reasons are
// spelled and bucketed by the session's port: the x86 port reproduces
// the paper's VT-x vocabulary, other ports substitute their own while
// the class rollup stays comparable across architectures.
func (rr *Renderer) Profiles(w io.Writer) {
	hr(w, "Sections 6.2/6.3: L0 time by nested exit reason (netperf TCP_RR)")
	res := rr.s.NetLatency(hv.ModeBaseline, 150)
	p := res.ExitStats
	port := rr.s.Port()
	var classShare [ports.NumClasses]float64
	var classExits [ports.NumClasses]uint64
	for r := isa.ExitReason(0); r < isa.NumExitReasons; r++ {
		if p.Count[r] == 0 {
			continue
		}
		c := port.Classify(r)
		classShare[c] += p.Share(r)
		classExits[c] += p.Count[r]
		fmt.Fprintf(w, "%-20s %-11s %8d exits %10.1f%% of nested handling time\n",
			port.ExitName(r), c.String(), p.Count[r], 100*p.Share(r))
	}
	fmt.Fprintf(w, "by class (%s):", port.Name())
	for c := ports.Class(0); c < ports.NumClasses; c++ {
		if classExits[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s %.1f%%", c.String(), 100*classShare[c])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(paper, memcached: EPT_MISCONFIG 4.8-19.3% and MSR_WRITE 0.5-4.6% of overall time)")
}

// Ports renders the cross-ISA comparison: the nested TCP_RR workload
// under every requested architecture port (empty = all registered) and
// all four system variants, one table from one invocation. Exit counts
// are bucketed by each port's own taxonomy, so the rows stay comparable
// even though the ports speak different exit vocabularies.
func (rr *Renderer) Ports(w io.Writer, portNames []string, n int) error {
	cmp, err := rr.s.ComparePorts(portNames, n)
	if err != nil {
		return err
	}
	hr(w, "Cross-ISA comparison: nested netperf TCP_RR per port and mode")
	fmt.Fprintf(w, "%-8s %-14s %8s %9s %9s %9s %8s  %s\n",
		"port", "mode", "exits", "mean(us)", "p50(us)", "p99(us)", "speedup", "exits by class")
	for _, row := range cmp.Rows {
		for _, c := range row {
			var classes []string
			for cl := ports.Class(0); cl < ports.NumClasses; cl++ {
				if c.ByClass[cl] > 0 {
					classes = append(classes, fmt.Sprintf("%s %d", cl, c.ByClass[cl]))
				}
			}
			fmt.Fprintf(w, "%-8s %-14s %8d %9.2f %9.2f %9.2f %7.2fx  %s\n",
				c.Port, c.Mode, c.Exits, c.MeanUs, c.P50Us, c.P99Us, c.Speedup,
				strings.Join(classes, ", "))
		}
	}
	return nil
}
