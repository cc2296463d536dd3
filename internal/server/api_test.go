package server

import (
	"errors"
	"strings"
	"testing"

	"svtsim/internal/uerr"
)

// TestCanonicalizeEquivalence: two spellings of the same experiment —
// one sparse, one explicit with shorthand modes and junk in ignored
// fields — must digest identically after canonicalization.
func TestCanonicalizeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name             string
		sparse, explicit Request
	}{
		{"storm", Request{Kind: KindStorm}, Request{
			Kind:     KindStorm,
			Modes:    []string{"baseline", "sw", "hw", "bypass"},
			Topology: "2x8x2",
			Shards:   1,
			Seed:     42, VMs: 8, Storms: 12,
			// Fields the storm kind ignores must be zeroed away.
			SLOUs: 999, DurMs: 77, Workload: "video", FPS: 30, Schedules: 9,
			Scenario: "overload",
		}},
		// The host has one engine: a shard count selects nothing.
		{"fleet-shards", Request{Kind: KindFleet}, Request{Kind: KindFleet, Shards: 4}},
		// The differential check and the single-machine workloads never
		// read the session topology.
		{"check-topology", Request{Kind: KindCheck}, Request{Kind: KindCheck, Topology: "1x4x2"}},
		{"workload-topology", Request{Kind: KindWorkload, Workload: "netrr"},
			Request{Kind: KindWorkload, Workload: "netrr", Topology: "1x4x2"}},
	} {
		sparse, explicit := tc.sparse, tc.explicit
		for _, r := range []*Request{&sparse, &explicit} {
			if err := r.Canonicalize(); err != nil {
				t.Fatalf("%s: Canonicalize: %v", tc.name, err)
			}
		}
		if sparse.Digest() != explicit.Digest() {
			t.Errorf("%s: equivalent requests digest differently:\n  %+v\n  %+v", tc.name, sparse, explicit)
		}
		if got, want := strings.Join(sparse.Modes, ","), "baseline,sw-svt,hw-svt,hw-svt-bypass"; tc.name == "storm" && got != want {
			t.Errorf("canonical modes = %s, want %s", got, want)
		}
	}
}

// TestCanonicalizeDistinct: requests that mean different experiments
// must never collide.
func TestCanonicalizeDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"density", Request{Kind: KindDensity}},
		{"density-slo", Request{Kind: KindDensity, SLOUs: 250}},
		{"density-topo", Request{Kind: KindDensity, Topology: "1x4x2"}},
		{"storm", Request{Kind: KindStorm}},
		{"storm-seed", Request{Kind: KindStorm, Seed: 7}},
		{"fleet", Request{Kind: KindFleet}},
		{"check", Request{Kind: KindCheck}},
		{"workload", Request{Kind: KindWorkload}},
		{"workload-netrr", Request{Kind: KindWorkload, Workload: "netrr"}},
		{"workload-trace", Request{Kind: KindWorkload, Trace: true}},
		{"lb", Request{Kind: KindLB}},
		{"lb-overload", Request{Kind: KindLB, Scenario: "overload"}},
		{"lb-k", Request{Kind: KindLB, VMs: 8}},
	} {
		r := tc.req
		if err := r.Canonicalize(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := r.Digest()
		if prev, ok := seen[d]; ok {
			t.Errorf("digest collision: %s and %s", prev, tc.name)
		}
		seen[d] = tc.name
	}
}

// TestCanonicalizeIdempotent: canonicalizing twice is a no-op.
func TestCanonicalizeIdempotent(t *testing.T) {
	r := &Request{Kind: KindDensity, Modes: []string{"hw"}}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	d1 := r.Digest()
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if d2 := r.Digest(); d2 != d1 {
		t.Errorf("second Canonicalize changed the digest: %s != %s", d2, d1)
	}
}

// TestCanonicalizeErrors: malformed requests return structured uerr
// values naming the offending field.
func TestCanonicalizeErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		req   Request
		field string
	}{
		{"missing kind", Request{}, "kind"},
		{"unknown kind", Request{Kind: "frobnicate"}, "kind"},
		{"bad mode", Request{Kind: KindStorm, Modes: []string{"vmx"}}, "mode"},
		{"bad topology", Request{Kind: KindStorm, Topology: "2x8x9"}, "topology"},
		{"bad workload", Request{Kind: KindWorkload, Workload: "doom"}, "workload"},
		{"faultgrid is gone", Request{Kind: "faultgrid", Faults: "swsvt/wakeup:rate=0.1,drop"}, "kind"},
		{"bad fault rate", Request{Kind: KindStorm, Faults: "swsvt/wakeup:rate=1.5,drop"}, "faults"},
		{"NaN fault rate", Request{Kind: KindStorm, Faults: "swsvt/wakeup:rate=NaN,drop"}, "faults"},
		{"overflowing topology", Request{Kind: KindDensity, Topology: "4294967296x4294967296x1"}, "topology"},
		{"one-context host", Request{Kind: KindDensity, Topology: "1x1x1"}, "topology"},
		{"bad fault spec", Request{Kind: KindStorm, Faults: "nonsense"}, "faults"},
		{"bad lb scenario", Request{Kind: KindLB, Scenario: "sinusoid"}, "scenario"},
	} {
		r := tc.req
		err := r.Canonicalize()
		if err == nil {
			t.Errorf("%s: want error, got none", tc.name)
			continue
		}
		var ue *uerr.E
		if !errors.As(err, &ue) {
			t.Errorf("%s: error is not a *uerr.E: %v", tc.name, err)
			continue
		}
		if ue.Field != tc.field {
			t.Errorf("%s: field = %q, want %q (err: %v)", tc.name, ue.Field, tc.field, err)
		}
	}
}

// TestResultEncodeDeterministic pins the response body's shape.
func TestResultEncodeDeterministic(t *testing.T) {
	r := &Result{Digest: "abc", Kind: KindStorm, Lines: []string{"a=1", "b=2"}}
	b1, b2 := r.Encode(), r.Encode()
	if string(b1) != string(b2) {
		t.Fatal("Encode not deterministic")
	}
	if !strings.HasSuffix(string(b1), "\n") {
		t.Error("Encode body must end in newline")
	}
	if !strings.Contains(string(b1), `"kind": "storm"`) {
		t.Errorf("unexpected body:\n%s", b1)
	}
}

// TestCanonicalDigestsGolden pins the absolute digest of each kind's
// default request and of one non-default request per kind. A digest is
// a cache address that outlives the process, so a change to
// canonicalization must leave these bytes alone.
func TestCanonicalDigestsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"density", Request{Kind: KindDensity}, "060e0fea38d773ae400ac64c354ea06cb35d09d51b2cf27ccfbbf7957244ea5e"},
		{"density-custom", Request{Kind: KindDensity, Modes: []string{"hw"}, Topology: "1x2x2", VMs: 3, SLOUs: 250,
			Port: "armlike", Faults: "swsvt/wakeup:rate=0.1,drop", FaultSeed: 5, Trace: true}, "f7e72b1b8d6a2e952185af49b8cc52bbcd67734e25635c24be72a7922320540a"},
		{"storm", Request{Kind: KindStorm}, "d81068225575da71430f2383701fe41930ffce9feb6490104b512751ada23fe2"},
		{"storm-custom", Request{Kind: KindStorm, Modes: []string{"sw", "baseline"}, Topology: "1x4x2", VMs: 6, Storms: 3, Seed: 9,
			Faults: "apic/ipi:rate=0.2,drop"}, "9f75cb0a76b64929e3a1c31676f837843f0284de8a814fff5564df8b750a17ef"},
		{"fleet", Request{Kind: KindFleet}, "755492f26d7f0551f55f252843f9f41d10b5cb874df625c0457de7bcfda4aa5f"},
		{"fleet-custom", Request{Kind: KindFleet, Topology: "2x2x2", DurMs: 5, CrossEvery: 16}, "41c22312c92622ba5b59544a8bb7b42118a9ef4db30a801292b4b7dc84868a6a"},
		{"check", Request{Kind: KindCheck}, "7eb61f621fa48f661c59eda7986c10bdf7ae61cb924166e2abd45b6724cef62e"},
		{"check-custom", Request{Kind: KindCheck, Schedules: 5, Seed: 3, Port: "armlike"}, "dd503182c16baa763adfffc1a4775a5ba754126afe021c708caa888e9690c68d"},
		{"workload", Request{Kind: KindWorkload}, "4bfe2479686d8eebdcaafc95f5a3d32b7e1307ba6d9bc18c3d896b0d7f4cc082"},
		{"workload-custom", Request{Kind: KindWorkload, Workload: "memcached", Modes: []string{"bypass"}, DurMs: 50, Rate: 2000,
			Faults: "swsvt/wakeup:rate=0.3,drop", FaultSeed: 11, Trace: true}, "679f967f85b3c20e7eff3921591c63f7f7e9fbd79fed44457c50f30cd036a614"},
		{"lb", Request{Kind: KindLB}, "95eede3e64b0f06b109aa4104e659a68e1b02c45d3bd621669a9d74601052bc6"},
		{"lb-custom", Request{Kind: KindLB, Scenario: "overload", Topology: "2x2x2", VMs: 3, SLOUs: 800, Seed: 4}, "11ab4c275a44f53570c92ccd7deef6a7ac62e9b7b597fab15c6b598e61220be6"},
	} {
		r := tc.req
		if err := r.Canonicalize(); err != nil {
			t.Fatalf("%s: Canonicalize: %v", tc.name, err)
		}
		if got := r.Digest(); got != tc.want {
			t.Errorf("%s: digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
