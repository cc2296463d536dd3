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
		{"faultgrid", Request{Kind: KindFaultGrid, Faults: "swsvt/wakeup:rate=0.1,drop;apic/ipi:rate=0.1,drop"}},
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
		{"faultgrid no spec", Request{Kind: KindFaultGrid}, "faults"},
		{"bad fault rate", Request{Kind: KindStorm, Faults: "swsvt/wakeup:rate=1.5,drop"}, "faults"},
		{"NaN fault rate", Request{Kind: KindStorm, Faults: "swsvt/wakeup:rate=NaN,drop"}, "faults"},
		{"overflowing topology", Request{Kind: KindDensity, Topology: "4294967296x4294967296x1"}, "topology"},
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
