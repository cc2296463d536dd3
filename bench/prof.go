package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profPackages are the simulator layers whose CPU self time a traced run
// reports as prof.<pkg>.self_frac.
var profPackages = []string{
	"sim", "cpu", "vmcs", "ept", "hv", "swsvt", "ports", "virtio", "netsim",
	"netstack", "snapshot", "host", "exp", "server", "mem",
}

// Runtime frames that mark a sample as scheduler, allocator or collector
// work. A sample whose leaf is in the runtime is charged to the first of
// gc, malloc, sched that any frame of its stack names; samples with a
// non-runtime leaf, and runtime leaves with no marker (map operations,
// memmove), are charged to the nearest svtsim layer on the stack.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.markroot",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC", "runtime.sweepone",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime._GC",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.mcall", "runtime.gosched",
		"runtime.semacquire", "runtime.semrelease", "runtime.newproc", "runtime.goexit0",
		"runtime.startm", "runtime.stopm", "runtime.wakep", "runtime.netpoll", "runtime.usleep",
		"runtime.osyield", "runtime.stealWork", "runtime._System",
	}
)

// profFractions runs `go tool pprof -traces` on a CPU profile and returns
// the share of samples charged to each layer, keyed by metric name.
// Samples labelled kind=layer-call (the repeated layer calls of a traced
// run) are left out: they measure layers in isolation, not the workload.
func profFractions(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	shares, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	res := map[string]float64{}
	for _, p := range profPackages {
		res["prof."+p+".self_frac"] = shares[p]
	}
	for _, k := range []string{"sched", "malloc", "gc"} {
		res["prof.runtime."+k+"_frac"] = shares["runtime."+k]
	}
	return res, nil
}

// parseTraces reads pprof's -traces text: blocks separated by dashed
// lines, each with optional "key: value" label lines, then a line with
// the sample value and the leaf frame, then the callers one per line.
func parseTraces(out []byte) (map[string]float64, error) {
	charged := map[string]float64{}
	var total float64
	var (
		value  float64
		frames []string
		skip   bool
	)
	flush := func() {
		if value > 0 && !skip {
			charged[chargeTo(frames)] += value
			total += value
		}
		value, frames, skip = 0, nil, false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case value == 0 && len(fields) >= 2 && strings.HasSuffix(fields[0], ":"):
			if fields[0] == "kind:" && fields[1] == "layer-call" {
				skip = true
			}
		case value == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			value = d.Seconds()
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return charged, nil
	}
	for k := range charged {
		charged[k] /= total
	}
	return charged, nil
}

// chargeTo names the bucket one sample's stack (leaf first) belongs to.
func chargeTo(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if strings.HasPrefix(frames[0], "runtime.") {
		for _, set := range []struct {
			name   string
			frames []string
		}{{"runtime.gc", gcFrames}, {"runtime.malloc", mallocFrames}, {"runtime.sched", schedFrames}} {
			for _, f := range frames {
				for _, m := range set.frames {
					if strings.HasPrefix(f, m) {
						return set.name
					}
				}
			}
		}
	}
	for _, f := range frames {
		if p := layerOf(f); p != "" {
			return p
		}
	}
	return "other"
}

// layerOf maps "svtsim/internal/vmcs.(*VMCS).Write" to "vmcs" and
// "svtsim/internal/ports/x86.port.NewIRQ" to "ports"; other frames map
// to "". The x86 port's interrupt controller lives in internal/apic, so
// apic counts as ports too.
func layerOf(frame string) string {
	const prefix = "svtsim/internal/"
	if !strings.HasPrefix(frame, prefix) {
		return ""
	}
	rest := frame[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "apic" {
		return "ports"
	}
	return rest
}
