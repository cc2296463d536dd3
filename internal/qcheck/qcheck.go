// Package qcheck centralizes testing/quick configuration so property
// tests are reproducible. testing/quick's default RNG is time-seeded,
// which makes a failing property unrerunnable; every package using quick
// builds its config here instead, from a fixed, logged seed that can be
// overridden with the QUICK_SEED environment variable when hunting a
// reported failure.
package qcheck

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// DefaultSeed seeds quick's RNG unless QUICK_SEED overrides it.
const DefaultSeed = 1

// Seed resolves the property-test seed and logs it, so the value to
// reproduce a failure is always in the test output.
func Seed(t testing.TB) int64 {
	seed := int64(DefaultSeed)
	if env := os.Getenv("QUICK_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("qcheck: bad QUICK_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("qcheck: seed %d (override with QUICK_SEED)", seed)
	return seed
}

// Config returns a quick.Config with the given MaxCount and a
// deterministically seeded RNG. Only tests call it; it stays because the
// property tests of ten packages share it.
func Config(t testing.TB, maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(Seed(t)))}
}
