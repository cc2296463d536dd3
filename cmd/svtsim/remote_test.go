package main

import (
	"strings"
	"testing"

	"svtsim/internal/server"
)

// TestRemoteRequestRejectsLocalOnlyFlags: flags with no served form are
// refused instead of silently submitting some other job.
func TestRemoteRequestRejectsLocalOnlyFlags(t *testing.T) {
	base := remoteFlags{mode: "sw-svt", workload: "cpuid", hostStr: "1x2x2", port: "x86", n: 50}
	for name, mutate := range map[string]func(*remoteFlags){
		"-portcmp":    func(f *remoteFlags) { f.portCmp = true },
		"-summary":    func(f *remoteFlags) { f.summary = 5 },
		"-dump-exits": func(f *remoteFlags) { f.dumpExits = 8 },
		"-replay":     func(f *remoteFlags) { f.replay = "x.sched" },
		"-migrate":    func(f *remoteFlags) { f.migrate = "2:0" },
	} {
		f := base
		mutate(&f)
		if _, err := remoteRequest(f); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got err %v, want a refusal naming the flag", name, err)
		}
	}
	if req, err := remoteRequest(base); err != nil || req.Kind != server.KindWorkload || req.N != 50 {
		t.Fatalf("plain workload request: %+v, %v", req, err)
	}
}
