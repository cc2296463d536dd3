package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"svtsim/internal/sim"
)

// Spec is a parsed fault configuration: a seed plus the set of armed
// sites. It is what the CLI and experiments hand to the machine builder;
// Build turns it into a live Plane on a concrete engine.
type Spec struct {
	Seed  int64
	Sites []SiteConfig
}

// Build constructs a Plane from the spec and registers it with eng.
// A nil spec or a spec with no sites builds nothing and returns nil, so
// healthy runs stay injector-free (and therefore bit-identical to a
// build without the fault plane at all).
func (s *Spec) Build(eng *sim.Engine) *Plane {
	if s == nil || len(s.Sites) == 0 {
		return nil
	}
	p := NewPlane(eng, s.Seed)
	for _, cfg := range s.Sites {
		p.Add(cfg)
	}
	return p
}

// String renders the spec back into ParseSpec's syntax.
func (s *Spec) String() string {
	if s == nil || len(s.Sites) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(s.Sites))
	for _, c := range s.Sites {
		var kv []string
		if c.Every > 0 {
			kv = append(kv, fmt.Sprintf("every=%d", c.Every))
		} else {
			kv = append(kv, fmt.Sprintf("rate=%g", c.Rate))
		}
		if c.After > 0 {
			kv = append(kv, fmt.Sprintf("after=%d", c.After))
		}
		if c.Limit > 0 {
			kv = append(kv, fmt.Sprintf("limit=%d", c.Limit))
		}
		if c.Drop {
			kv = append(kv, "drop")
		}
		if c.Delay > 0 {
			kv = append(kv, "delay="+durationString(c.Delay))
		}
		if c.Jitter > 0 {
			kv = append(kv, "jitter="+durationString(c.Jitter))
		}
		parts = append(parts, c.Site+":"+strings.Join(kv, ","))
	}
	return strings.Join(parts, ";")
}

// durationString renders d so that ParseDuration reads back d: as
// sim.Time prints it when that text is exact, in nanoseconds otherwise
// (sim.Time rounds to two decimals, so 1234ns would print as 1.23us).
func durationString(d sim.Time) string {
	s := d.String()
	if back, err := ParseDuration(s); err == nil && back == d {
		return s
	}
	return strconv.FormatInt(int64(d), 10) + "ns"
}

// ParseSpec parses a CLI fault spec of the form
//
//	site:key=val,key,... ; site2:...
//
// e.g. "swsvt/wakeup:rate=0.05,drop;apic/ipi:every=100,drop,limit=3" or
// "blk/complete:rate=0.1,delay=50us,jitter=10us". Recognised keys:
// rate, every, after, limit, drop, delay, jitter. Durations accept
// ns/us/ms/s suffixes (bare numbers are nanoseconds). Unknown sites and
// keys are errors so typos fail fast instead of silently never firing,
// as are sites that can never fire (no rate or every) or have no
// effect (no drop or delay).
func ParseSpec(arg string, seed int64) (*Spec, error) {
	spec := &Spec{Seed: seed}
	arg = strings.TrimSpace(arg)
	if arg == "" || arg == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(arg, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault spec %q: want site:key=val,...", part)
		}
		site = strings.TrimSpace(site)
		if !knownSite(site) {
			return nil, fmt.Errorf("fault spec: unknown site %q (known: %s)",
				site, strings.Join(Sites(), " "))
		}
		cfg := SiteConfig{Site: site}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, _ := strings.Cut(kv, "=")
			var err error
			switch key {
			case "rate":
				cfg.Rate, err = strconv.ParseFloat(val, 64)
				if err == nil && !(cfg.Rate >= 0 && cfg.Rate <= 1) { // NaN too
					err = fmt.Errorf("rate %g outside [0,1]", cfg.Rate)
				}
			case "every":
				cfg.Every, err = strconv.ParseUint(val, 10, 64)
			case "after":
				cfg.After, err = strconv.ParseUint(val, 10, 64)
			case "limit":
				cfg.Limit, err = strconv.ParseUint(val, 10, 64)
			case "drop":
				cfg.Drop = true
			case "delay":
				cfg.Delay, err = ParseDuration(val)
			case "jitter":
				cfg.Jitter, err = ParseDuration(val)
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: %v", part, err)
			}
		}
		if cfg.Delay > math.MaxInt64-cfg.Jitter {
			return nil, fmt.Errorf("fault spec %q: delay+jitter exceeds the largest virtual time %v", part, maxTime)
		}
		if !cfg.Drop && cfg.Delay == 0 && cfg.Jitter == 0 {
			return nil, fmt.Errorf("fault spec %q: no effect (want drop and/or delay)", part)
		}
		if cfg.Every == 0 && cfg.Rate == 0 {
			return nil, fmt.Errorf("fault spec %q: site %s never fires (want rate=R>0 or every=N)", part, site)
		}
		spec.Sites = append(spec.Sites, cfg)
	}
	return spec, nil
}

// maxTime is the largest virtual time.
const maxTime = sim.Time(math.MaxInt64)

// ParseDuration parses a virtual duration with an optional ns/us/ms/s
// suffix; a bare number is nanoseconds. NaN, infinite, negative and
// durations past the largest virtual time are errors.
func ParseDuration(s string) (sim.Time, error) {
	unit := sim.Nanosecond
	num := s
	switch {
	case strings.HasSuffix(s, "ns"):
		num = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		num, unit = s[:len(s)-2], sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		num, unit = s[:len(s)-2], sim.Millisecond
	case strings.HasSuffix(s, "s"):
		num, unit = s[:len(s)-1], sim.Second
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || !(f >= 0) { // NaN too
		return 0, fmt.Errorf("bad duration %q", s)
	}
	ns := f * float64(unit)
	if ns >= float64(maxTime) { // +Inf too; 2^63 itself overflows
		return 0, fmt.Errorf("duration %q exceeds the largest virtual time %v", s, maxTime)
	}
	return sim.Time(ns), nil
}
