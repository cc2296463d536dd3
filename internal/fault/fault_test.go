package fault

import (
	"reflect"
	"strings"
	"testing"

	"svtsim/internal/obs"
	"svtsim/internal/sim"
)

func TestPlaneDeterministicReplay(t *testing.T) {
	run := func() []sim.FaultOutcome {
		eng := sim.New()
		p := NewPlane(eng, 42)
		p.Add(SiteConfig{Site: SiteSVtWakeup, Rate: 0.3, Drop: true})
		p.Add(SiteConfig{Site: SiteIPI, Rate: 0.2, Delay: 2 * sim.Microsecond, Jitter: sim.Microsecond})
		var out []sim.FaultOutcome
		for i := 0; i < 500; i++ {
			out = append(out, eng.Inject(SiteSVtWakeup))
			out = append(out, eng.Inject(SiteIPI))
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical seeds produced divergent fault sequences")
	}
}

func TestPlaneSiteStreamsIndependent(t *testing.T) {
	// The wakeup site's outcomes must not depend on how often some other
	// site is consulted in between.
	seq := func(extraConsults int) []bool {
		eng := sim.New()
		p := NewPlane(eng, 7)
		p.Add(SiteConfig{Site: SiteSVtWakeup, Rate: 0.5, Drop: true})
		p.Add(SiteConfig{Site: SiteIRQ, Rate: 0.5, Drop: true})
		var out []bool
		for i := 0; i < 200; i++ {
			for j := 0; j < extraConsults; j++ {
				eng.Inject(SiteIRQ)
			}
			out = append(out, eng.Inject(SiteSVtWakeup).Drop)
		}
		return out
	}
	if !reflect.DeepEqual(seq(0), seq(5)) {
		t.Fatal("site streams are not independent: IRQ consults perturbed wakeup outcomes")
	}
}

func TestPlaneScheduledFaults(t *testing.T) {
	eng := sim.New()
	p := NewPlane(eng, 0)
	// Fault exactly consults 11, 12, 13.
	p.Add(SiteConfig{Site: SiteRingPush, Every: 1, After: 10, Limit: 3, Drop: true})
	var fired []int
	for i := 1; i <= 20; i++ {
		if eng.Inject(SiteRingPush).Drop {
			fired = append(fired, i)
		}
	}
	if !reflect.DeepEqual(fired, []int{11, 12, 13}) {
		t.Fatalf("scheduled faults fired at %v, want [11 12 13]", fired)
	}
	if p.FiresCounter().Value() != 3 {
		t.Fatalf("plane fired %d faults, want 3", p.FiresCounter().Value())
	}
}

func TestPlaneEveryN(t *testing.T) {
	eng := sim.New()
	p := NewPlane(eng, 0)
	p.Add(SiteConfig{Site: SiteIRQ, Every: 4, Drop: true})
	var fired []int
	for i := 1; i <= 12; i++ {
		if eng.Inject(SiteIRQ).Drop {
			fired = append(fired, i)
		}
	}
	if !reflect.DeepEqual(fired, []int{1, 5, 9}) {
		t.Fatalf("every=4 fired at %v, want [1 5 9]", fired)
	}
}

func TestPlaneUnarmedSiteNeverFires(t *testing.T) {
	eng := sim.New()
	p := NewPlane(eng, 1)
	p.Add(SiteConfig{Site: SiteIRQ, Rate: 1, Drop: true})
	for i := 0; i < 100; i++ {
		if eng.Inject(SiteBlkComplete).Faulty() {
			t.Fatal("unarmed site fired")
		}
	}
	if p.FiresCounter().Value() != 0 {
		t.Fatalf("fires = %d, want 0", p.FiresCounter().Value())
	}
}

// TestPlaneTrace: every fired fault, and only a fired one, becomes an
// instant on the attached tracer, stamped with the fire time.
func TestPlaneTrace(t *testing.T) {
	eng := sim.New()
	p := NewPlane(eng, 0)
	tr := obs.NewTracer(1, 16)
	p.SetObs(tr, 0)
	p.Add(SiteConfig{Site: SiteIPI, Every: 2, Drop: true, Limit: 2})
	eng.Advance(5 * sim.Microsecond)
	for i := 0; i < 6; i++ {
		eng.Inject(SiteIPI)
	}
	var got []obs.Event
	tr.Ring(0).Do(func(e obs.Event) { got = append(got, e) })
	if len(got) != 2 || p.FiresCounter().Value() != 2 {
		t.Fatalf("traced %d faults, plane fired %d; want 2 and 2", len(got), p.FiresCounter().Value())
	}
	for _, e := range got {
		if e.Kind != obs.KindFault || e.At != 5*sim.Microsecond || e.Arg1 != 1 ||
			tr.Lookup(e.Label) != SiteIPI {
			t.Fatalf("bad fault instant: %+v", e)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	eng := sim.New()
	b := NewBreaker(eng, 3, 100*sim.Microsecond)

	// Two failures then a success: stays closed.
	b.Failure()
	b.Failure()
	b.Success()
	if b.state != Closed || b.Trips() != 0 {
		t.Fatalf("breaker tripped early: %v", b)
	}

	// Three consecutive failures trip it.
	b.Failure()
	b.Failure()
	b.Failure()
	if b.state != Open || b.Trips() != 1 {
		t.Fatalf("breaker did not trip: %v", b)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed fast path before cooldown")
	}

	// Cooldown elapses: half-open probe allowed, success re-closes.
	eng.Advance(100 * sim.Microsecond)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.state != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.state)
	}
	b.Success()
	if b.state != Closed || b.Recoveries() != 1 {
		t.Fatalf("breaker did not recover: %v", b)
	}

	// Trip again; a failed half-open probe re-opens immediately.
	b.Failure()
	b.Failure()
	b.Failure()
	eng.Advance(100 * sim.Microsecond)
	if !b.Allow() {
		t.Fatal("second half-open denied")
	}
	b.Failure()
	if b.state != Open || b.Trips() != 3 {
		t.Fatalf("half-open failure did not re-open: %v", b)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("swsvt/wakeup:rate=0.05,drop; apic/ipi:every=100,drop,limit=3;blk/complete:rate=0.1,delay=50us,jitter=10us", 99)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 99 || len(spec.Sites) != 3 {
		t.Fatalf("bad spec: %+v", spec)
	}
	want := []SiteConfig{
		{Site: SiteSVtWakeup, Rate: 0.05, Drop: true},
		{Site: SiteIPI, Every: 100, Drop: true, Limit: 3},
		{Site: SiteBlkComplete, Rate: 0.1, Delay: 50 * sim.Microsecond, Jitter: 10 * sim.Microsecond},
	}
	if !reflect.DeepEqual(spec.Sites, want) {
		t.Fatalf("sites = %+v\nwant    %+v", spec.Sites, want)
	}
	// String() output re-parses to the same spec.
	spec2, err := ParseSpec(spec.String(), 99)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("round trip changed spec:\n  %+v\n  %+v", spec, spec2)
	}
}

// TestSpecStringRoundTrip holds String to ParseSpec's syntax exactly:
// the text a failed run prints as its replay line must parse back to the
// spec that ran, delays and jitters to the nanosecond.
func TestSpecStringRoundTrip(t *testing.T) {
	specs := []*Spec{{Seed: 5, Sites: []SiteConfig{
		{Site: SiteIRQ, Rate: 0.5, Delay: 1234, Jitter: 1999},
	}}}
	keys := []SiteConfig{
		{Rate: 0.123456789, Drop: true},
		{Every: 7, Drop: true},
		{Every: 3, After: 11, Drop: true},
		{Rate: 1, Limit: 4, Drop: true},
		{Rate: 0.25, Delay: 20 * sim.Microsecond},
		{Rate: 0.25, Delay: 1_000_001},
		{Rate: 0.25, Delay: 3 * sim.Second, Jitter: 1},
		{Rate: 0.25, Drop: true, Jitter: 999_999_999},
	}
	for _, site := range Sites() {
		for _, c := range keys {
			c.Site = site
			specs = append(specs, &Spec{Seed: 9, Sites: []SiteConfig{c}})
		}
	}
	for _, s := range specs {
		back, err := ParseSpec(s.String(), s.Seed)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%q parses back as %+v, want %+v", s, back.Sites, s.Sites)
		}
	}
	if got, want := specs[0].String(), "apic/irq:rate=0.5,delay=1234ns,jitter=1999ns"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	exact := &Spec{Sites: []SiteConfig{{Site: SiteNetSegment, Rate: 0.05, Delay: 20 * sim.Microsecond}}}
	if got, want := exact.String(), "net/segment:rate=0.05,delay=20.00us"; got != want {
		t.Errorf("String() = %q, want today's exact text %q", got, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"nosuch/site:rate=0.1,drop",  // unknown site
		"swsvt/wakeup:rate=1.5,drop", // rate out of range
		"swsvt/wakeup:frob=1",        // unknown key
		"swsvt/wakeup:rate=0.1",      // no effect
		"swsvt/wakeup",               // missing colon
		"swsvt/wakeup:delay=abc",     // bad duration
		"swsvt/wakeup:drop",          // never fires: no rate, no every
		"swsvt/wakeup:rate=0,drop",   // never fires: zero rate
		"swsvt/wakeup:rate=NaN,drop", // NaN passes neither bound
		"swsvt/wakeup:rate=Inf,drop",
		"swsvt/wakeup:rate=0.5,delay=NaNus",
		"swsvt/wakeup:rate=0.5,delay=Infms",
		"swsvt/wakeup:rate=0.5,delay=1e300s", // past the largest sim.Time
		"swsvt/wakeup:rate=0.5,jitter=NaN",
		"swsvt/wakeup:rate=0.5,delay=5e9s,jitter=5e9s", // sum overflows
	} {
		if _, err := ParseSpec(bad, 0); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	// A site that can never fire is named in the error.
	if _, err := ParseSpec("apic/ipi:drop", 0); err == nil || !strings.Contains(err.Error(), "site apic/ipi never fires") {
		t.Errorf("never-firing site: err = %v, want it named", err)
	}
	spec, err := ParseSpec("", 5)
	if err != nil || len(spec.Sites) != 0 || spec.Seed != 5 {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}
	if spec.Build(sim.New()) != nil {
		t.Fatal("empty spec built a plane")
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]sim.Time{
		"100":   100,
		"100ns": 100,
		"2us":   2 * sim.Microsecond,
		"1.5ms": 1500 * sim.Microsecond,
		"1s":    sim.Second,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"-5us", "NaN", "NaNus", "Inf", "-Infs", "1e300s", "9223372036854775808"} {
		if d, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) = %v, want an error", bad, d)
		}
	}
}

func TestSpecBuildRegistersWithEngine(t *testing.T) {
	eng := sim.New()
	spec := &Spec{Seed: 3, Sites: []SiteConfig{{Site: SiteIRQ, Every: 1, Drop: true}}}
	p := spec.Build(eng)
	if p == nil {
		t.Fatal("Build returned nil for non-empty spec")
	}
	if !eng.Inject(SiteIRQ).Drop {
		t.Fatal("built plane not registered with engine")
	}
}
