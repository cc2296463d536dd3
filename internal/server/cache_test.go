package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"svtsim/internal/allocs"
	"svtsim/internal/race"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1 << 20)
	if c.Get("a") != nil {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("result-a"), map[string][]byte{"trace.json": []byte("{}")})
	e := c.Get("a")
	if e == nil {
		t.Fatal("miss after Put")
	}
	if string(e.body) != "result-a" || string(e.artifacts["trace.json"]) != "{}" {
		t.Errorf("entry corrupted: %q %q", e.body, e.artifacts["trace.json"])
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", s)
	}
	if s.Bytes != int64(len("result-a")+len("{}")) {
		t.Errorf("bytes = %d", s.Bytes)
	}
}

// TestCacheLRUEviction: a tiny budget evicts least-recently-used
// entries, and a Get refreshes recency.
// A cache hit allocates nothing: svtsimd answers every repeated request
// from one.
func TestCacheGetHitAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	c := NewCache(1 << 20)
	c.Put("a", []byte("body"), nil)
	c.Put("b", []byte("other"), nil)
	key := "a"
	if n := allocs.PerRun(1000, func() {
		if c.Get(key) == nil {
			t.Fatal("cache lost a fresh entry")
		}
		if key == "a" {
			key = "b"
		} else {
			key = "a"
		}
	}); n != 0 {
		t.Errorf("cache hit: %.2f allocs, want 0", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	body := func(i int) []byte { return []byte(fmt.Sprintf("body-%04d", i)) } // 9 bytes
	c := NewCache(3 * 9)
	c.Put("a", body(0), nil)
	c.Put("b", body(1), nil)
	c.Put("c", body(2), nil)
	c.Get("a") // refresh a: LRU order is now b, c, a
	c.Put("d", body(3), nil)
	if c.Get("b") != nil {
		t.Error("b should have been evicted (LRU)")
	}
	if c.Get("a") == nil {
		t.Error("a was refreshed and must survive")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 entries", s)
	}

	// An entry larger than the whole budget is rejected outright.
	c.Put("huge", make([]byte, 1000), nil)
	if c.Get("huge") != nil {
		t.Error("over-budget entry must not be stored")
	}

	// budget <= 0 disables the cache.
	off := NewCache(0)
	off.Put("a", body(0), nil)
	if off.Get("a") != nil {
		t.Error("disabled cache stored an entry")
	}
}

// TestCacheConcurrent hammers Put/Get/Stats from many goroutines under
// a budget small enough to force constant eviction; meaningful under
// -race (CI runs this package with the detector on).
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := fmt.Sprintf("d%d", (g+i)%10)
				if e := c.Get(d); e == nil {
					c.Put(d, []byte(d+"-body"), nil)
				}
				if i%50 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > s.Budget {
		t.Errorf("cache over budget: %d > %d", s.Bytes, s.Budget)
	}
}

func TestCacheAges(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache(1 << 20)
	c.now = func() time.Time { return now }
	c.Put("a", []byte("x"), nil)
	now = now.Add(5 * time.Second)
	c.Put("b", []byte("y"), nil)
	now = now.Add(1 * time.Second)
	s := c.Stats()
	if s.OldestAgeMs != 6000 || s.NewestAgeMs != 1000 {
		t.Errorf("ages = %d/%d ms, want 6000/1000", s.OldestAgeMs, s.NewestAgeMs)
	}
	// Re-putting an existing digest keeps the elder entry.
	c.Put("a", []byte("x"), nil)
	if got := c.Stats().OldestAgeMs; got != 6000 {
		t.Errorf("re-put reset age: %d", got)
	}
}
