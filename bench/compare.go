package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareFiles judges two sets of untraced runs (A the parent, B the
// change) per workload and end-to-end metric, and reports whether the
// exact simulation counters agree for every seed the two sets share.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(rs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range rs {
			if !r.Traced {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if len(wb[n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both files")
	}
	for _, n := range names {
		compareWorkload(w, sp, n, wa[n], wb[n])
	}
	return nil
}

func compareWorkload(w io.Writer, sp *spec, name string, a, b []record) {
	calib := func(rs []record) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.CalibNs)
		}
		return median(xs)
	}
	ca, cb := calib(a), calib(b)
	drift := math.Abs(cb/ca - 1)
	pairs := seedPairs(a, b)
	bFailsMore := false
	for _, p := range pairs {
		if p[1].Failed > p[0].Failed {
			bFailsMore = true
		}
	}
	fmt.Fprintf(w, "%s: A %d runs, B %d runs; calib.ref_ns A %.0f B %.0f (drift %.1f%%)\n",
		name, len(a), len(b), ca, cb, 100*drift)
	fmt.Fprintf(w, "  %-22s %-36s %-36s %-9s %s\n", "metric", "A median [q1 q3]", "B median [q1 q3]", "B wins", "verdict")
	for _, d := range sp.endToEnd() {
		xa, xb := values(a, d.Name), values(b, d.Name)
		if len(xa) == 0 || len(xb) == 0 {
			continue
		}
		pv := pairedValues(pairs, d.Name)
		verdict := judge(d, xa, xb, pv, bFailsMore, drift)
		fmt.Fprintf(w, "  %-22s %-36s %-36s %-9s %s\n", d.Name, summary(xa), summary(xb),
			fmt.Sprintf("%d/%d", winsOf(d, pv), len(pv)), verdict)
	}
	same, diff := 0, 0
	for _, p := range pairs {
		if equalCounts(p[0].Counts, p[1].Counts) {
			same++
		} else {
			diff++
		}
	}
	fmt.Fprintf(w, "  exact counts: identical for %d seed pairs, different for %d\n", same, diff)
}

func values(rs []record, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g %.6g]", median(xs), q1, q3)
}

// seedPairs pairs each A run with the B run of the same seed; when the
// sets share no seed, runs pair up in file order.
func seedPairs(a, b []record) [][2]record {
	bySeed := map[int64]record{}
	for _, r := range b {
		bySeed[r.Seed] = r
	}
	var out [][2]record
	for _, r := range a {
		if o, ok := bySeed[r.Seed]; ok {
			out = append(out, [2]record{r, o})
		}
	}
	if len(out) == 0 {
		for i := 0; i < len(a) && i < len(b); i++ {
			out = append(out, [2]record{a[i], b[i]})
		}
	}
	return out
}

// pairedValues is one metric's (A, B) values over the pairs that both
// measured it.
func pairedValues(pairs [][2]record, name string) [][2]float64 {
	var out [][2]float64
	for _, p := range pairs {
		va, okA := p[0].Metrics[name]
		vb, okB := p[1].Metrics[name]
		if okA && okB {
			out = append(out, [2]float64{va, vb})
		}
	}
	return out
}

// winsOf counts the pairs in which B reads strictly better than A.
func winsOf(d metricDef, pairs [][2]float64) int {
	wins := 0
	for _, p := range pairs {
		if better(d, p[1], p[0]) {
			wins++
		}
	}
	return wins
}

func better(d metricDef, x, y float64) bool {
	if d.Better == "higher" {
		return x > y
	}
	return x < y
}

// judge gives one metric's verdict from both sides' values, their seed
// pairs, whether some B run failed more cells than its A pair, and the
// drift of the machine between the sets (calib.ref_ns medians):
//
//   - a 0-bound metric (error_rate, paper_err) is worse as soon as one
//     pair reads worse on B;
//   - better: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's interquartile range, and no B run failed
//     more cells than its pair;
//   - a host-time metric is unresolved when the machine drifted by more
//     than 10%, since its two sides ran at different speeds;
//   - unresolved when either side's spread exceeds the bound;
//   - worse when B's median is worse than A's by more than the bound;
//   - unchanged otherwise.
func judge(d metricDef, a, b []float64, pairs [][2]float64, bFailsMore bool, drift float64) string {
	if d.Bound == 0 && winsOf(d, swapped(pairs)) > 0 {
		return "worse"
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	wins := winsOf(d, pairs)
	if !bFailsMore && len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) &&
		better(d, mb, ma) && math.Abs(mb-ma) > qa3-qa1 {
		return "better"
	}
	if d.Bound == 0 {
		return "unchanged"
	}
	if hostTime(d) && drift > 0.10 {
		return "unresolved (machine drift)"
	}
	if math.Max((qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb)) > d.Bound {
		return "unresolved (spread above bound)"
	}
	worse := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "worse"
	}
	return "unchanged"
}

// swapped exchanges the sides of every pair.
func swapped(pairs [][2]float64) [][2]float64 {
	out := make([][2]float64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]float64{p[1], p[0]}
	}
	return out
}

func equalCounts(x, y map[string]float64) bool {
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if y[k] != v {
			return false
		}
	}
	return true
}
