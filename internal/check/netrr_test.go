package check

import (
	"bytes"
	"strings"
	"testing"

	"svtsim/internal/hv"
)

// netrrSchedule is the directive's canonical shape: reliable-flow
// request/response ops interleaved with raw netping frames (the two
// share one virtio conduit) and exit-heavy traffic between them.
func netrrSchedule(seed int64) *Schedule {
	return &Schedule{
		Seed: seed, VCPUs: 1,
		Ops: []Op{
			{Kind: OpNetRR, A: 2, B: 40},
			{Kind: OpCPUID, A: 3, B: 9},
			{Kind: OpNetPing, A: 60, B: 5},
			{Kind: OpNetRR, A: 1, B: 127},
			{Kind: OpHypercall, A: 7},
			{Kind: OpNetRR, A: 3, B: 3},
			{Kind: OpCPUID, A: 1},
		},
	}
}

// TestNetRRTransparent is the ISSUE's differential directive: the same
// netstack byte streams — handshake, data, acks, echoed payloads — must
// be guest-visible-identical under all four execution modes.
func TestNetRRTransparent(t *testing.T) {
	v := CheckSchedule(netrrSchedule(31), nil)
	if v.Failed() {
		t.Fatalf("netrr flow not transparent across modes:\n%s", v)
	}
	for _, out := range v.Outcomes {
		if !out.Completed {
			t.Fatalf("%v: netrr schedule did not complete", out.Mode)
		}
	}
}

// TestNetRRTransparentUnderFaults: the recoverable wakeup-drop site
// firing under every mode's feet must not leak into the flow's bytes.
// 0.2 is the generator's ceiling (fromBytes goes to 0.25); rates far
// beyond the harness envelope can wedge the pre-existing SW-SVt
// breaker-fallback + vhost-kick interleaving, which is not this
// directive's claim.
func TestNetRRTransparentUnderFaults(t *testing.T) {
	s := netrrSchedule(77)
	s.WakeupDropRate = 0.2
	if v := CheckSchedule(s, nil); v.Failed() {
		t.Fatalf("wakeup-drop recovery leaked into the netstack stream:\n%s", v)
	}
}

// TestNetRRSurvivesMigration: live-migrating the gang between netrr
// transactions (including a forced rollback) may cost the guest only
// time — the flow picks up where it left off with identical bytes.
func TestNetRRSurvivesMigration(t *testing.T) {
	s := netrrSchedule(13)
	s.Cores = 3
	s.Migrate = []MigratePoint{{After: 2, Fails: 0}, {After: 4, Fails: 3}}
	if v := CheckSchedule(s, nil); v.Failed() {
		t.Fatalf("migration mid-flow broke netstack transparency:\n%s", v)
	}
}

// TestNetRRRoundTrips pins the codec: a netrr schedule encodes to the
// canonical text form, decodes back, and re-encodes byte-identically —
// what -replay repro files rely on.
func TestNetRRRoundTrips(t *testing.T) {
	s := netrrSchedule(5)
	enc := s.Encode()
	if !strings.Contains(string(enc), "op netrr 2 40") {
		t.Fatalf("encoded schedule lost the netrr directive:\n%s", enc)
	}
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(dec.Encode()); got != string(enc) {
		t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", enc, got)
	}
}

// TestNetRRShrinkable: a failing schedule containing netrr ops goes
// through the ddmin shrinker like any other — the minimized repro still
// fails and still replays.
func TestNetRRShrinkable(t *testing.T) {
	opts := &RunOpts{Mutate: dropOneCPUID(hv.ModeSWSVt)}
	s := netrrSchedule(19)
	v := CheckSchedule(s, opts)
	if !v.Failed() {
		t.Fatal("sabotaged netrr schedule not detected")
	}
	min := Shrink(s, opts)
	if !CheckSchedule(min, opts).Failed() {
		t.Fatalf("shrunk schedule no longer fails:\n%s", min)
	}
	if len(min.Ops) >= len(s.Ops) {
		t.Errorf("shrinker removed nothing: %d ops -> %d", len(s.Ops), len(min.Ops))
	}
	if _, err := Decode(bytes.NewReader(min.Encode())); err != nil {
		t.Fatalf("shrunk repro does not re-decode: %v", err)
	}
}
