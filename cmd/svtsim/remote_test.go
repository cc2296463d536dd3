package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/server"
)

// TestRemoteRequestRejectsLocalOnlyFlags maps command lines onto the
// requests both a local run and -submit execute: flags with no served
// form are refused under -submit instead of silently submitting some
// other job, sweeps leave Modes empty so they run every mode,
// "-lb-scenario all" expands to one request per scenario in report
// order, and flags left unset stay zero for Canonicalize to default.
func TestRemoteRequestRejectsLocalOnlyFlags(t *testing.T) {
	const url = "-submit=http://127.0.0.1:1"
	lb := func(scen string) *server.Request {
		return &server.Request{Kind: server.KindLB, Topology: "2x2x2", VMs: 3, Scenario: scen}
	}
	cases := []struct {
		name    string
		args    []string
		want    []*server.Request
		wantErr string // substring of the refusal
	}{
		{name: "portcmp", args: []string{url, "-portcmp"}, wantErr: "-portcmp"},
		{name: "summary", args: []string{url, "-summary", "5"}, wantErr: "-summary"},
		{name: "dump-exits", args: []string{url, "-dump-exits", "8"}, wantErr: "-dump-exits"},
		{name: "replay", args: []string{url, "-replay", "x.sched"}, wantErr: "-replay"},
		{name: "migrate", args: []string{url, "-migrate", "2:0"}, wantErr: "-migrate"},
		{name: "fractional dur", args: []string{"-workload", "tpcc", "-dur", "1500us"}, wantErr: "whole milliseconds"},
		{
			name: "workload sends -mode",
			args: []string{url, "-mode", "sw-svt", "-workload", "cpuid", "-host", "1x2x2", "-n", "50"},
			want: []*server.Request{{Kind: server.KindWorkload, Workload: "cpuid", Modes: []string{"sw-svt"}, Topology: "1x2x2", N: 50}},
		},
		{
			name: "workload defaults stay zero",
			args: []string{"-workload", "memcached", "-dur", "20ms"},
			want: []*server.Request{{Kind: server.KindWorkload, Workload: "memcached", Modes: []string{"baseline"}, DurMs: 20}},
		},
		{
			name: "storm sweeps every mode",
			args: []string{"-storm", "12", "-vms", "6", "-host", "1x4x2", "-storm-seed", "42"},
			want: []*server.Request{{Kind: server.KindStorm, Topology: "1x4x2", VMs: 6, Storms: 12, Seed: 42}},
		},
		{
			name: "density sweeps every mode",
			args: []string{"-host", "1x2x2", "-vms", "3", "-density", "-slo", "500"},
			want: []*server.Request{{Kind: server.KindDensity, Topology: "1x2x2", VMs: 3, SLOUs: 500}},
		},
		{
			name: "lb one scenario",
			args: []string{url, "-lb", "3", "-lb-scenario", "burst", "-host", "2x2x2"},
			want: []*server.Request{lb("burst")},
		},
		{
			name: "lb all expands in report order",
			args: []string{url, "-lb", "3", "-lb-scenario", "all", "-host", "2x2x2"},
			want: []*server.Request{lb("steady"), lb("overload"), lb("burst"), lb("storm"), lb("faults")},
		},
		{
			name: "check",
			args: []string{url, "-check", "3", "-port", "armlike"},
			want: []*server.Request{{Kind: server.KindCheck, Port: "armlike", Schedules: 3, Seed: 1}},
		},
		{
			name: "obs flags trace the request",
			args: []string{"-density", "-metrics", "m.csv", "-faults", "apic/ipi:rate=0.5,drop", "-fault-seed", "3"},
			want: []*server.Request{{Kind: server.KindDensity, Trace: true, Faults: "apic/ipi:rate=0.5,drop", FaultSeed: 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("svtsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parseFlags(fs, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			got, err := requests(o)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got err %v, want a refusal naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("requests:\ngot  %+v\nwant %+v", deref(got), deref(tc.want))
			}
			for _, r := range got {
				if err := r.Canonicalize(); err != nil {
					t.Fatalf("%+v: %v", *r, err)
				}
			}
		})
	}
}

func deref(rs []*server.Request) []server.Request {
	out := make([]server.Request, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// TestReplayRefusesPort: a schedule file names its own port, so -replay
// refuses a -port that could contradict it (exit 2) before reading the
// file.
func TestReplayRefusesPort(t *testing.T) {
	fs := flag.NewFlagSet("svtsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, []string{"-replay", "missing.sched", "-port", "armlike"})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := run(o); code != 2 || err == nil || !strings.Contains(err.Error(), "-port") {
		t.Fatalf("run = %d, %v; want exit 2 naming -port", code, err)
	}
}
