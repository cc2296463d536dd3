package server

// The content-addressed memo cache: canonical request digest → the
// exact bytes the cold run produced (result body plus rendered
// artifacts). Entries are immutable after insertion, so readers hold no
// lock while serving; the map+list under one mutex implement plain LRU
// over a byte budget. This generalizes the phase-1 memoization each
// experiment session keeps in-process (exp.vmCache) to the serving tier:
// determinism makes a simulation's output a pure function of its
// request, so "have I run this before" is just a map lookup.

import (
	"container/list"
	"sync"
	"time"
)

// cacheEntry is one cached result. All fields are written once, before
// the entry is published; readers never mutate it.
type cacheEntry struct {
	digest    string
	body      []byte            // canonical Result.Encode bytes
	artifacts map[string][]byte // obs.Artifact* names → rendered bytes
	size      int64
	born      time.Time
}

func entrySize(body []byte, artifacts map[string][]byte) int64 {
	n := int64(len(body))
	for _, b := range artifacts {
		n += int64(len(b))
	}
	return n
}

// CacheStats is the /v1/cache snapshot.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget"`
	// OldestAgeMs / NewestAgeMs report entry ages (0 when empty).
	OldestAgeMs int64 `json:"oldest_age_ms"`
	NewestAgeMs int64 `json:"newest_age_ms"`
}

// Cache is the LRU memo cache. budget <= 0 disables caching entirely
// (every Get misses, every Put is dropped), which keeps the serving
// path uniform for cache-off deployments.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List // front = most recently used; values are *cacheEntry
	m         map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	now       func() time.Time // injectable for tests
}

// NewCache returns a cache bounded to budget bytes of stored results.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), m: make(map[string]*list.Element), now: time.Now}
}

// Get returns the entry addressed by digest, or nil on a miss. A hit
// refreshes the entry's LRU position.
func (c *Cache) Get(digest string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[digest]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// Put stores a result under its digest, evicting least-recently-used
// entries until the budget holds. An entry larger than the whole budget
// is not stored (it would only evict everything and then miss anyway).
// Re-putting an existing digest keeps the original entry: determinism
// guarantees the bytes are identical, and keeping the elder preserves
// its age metric.
func (c *Cache) Put(digest string, body []byte, artifacts map[string][]byte) {
	size := entrySize(body, artifacts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 || size > c.budget {
		return
	}
	if _, ok := c.m[digest]; ok {
		return
	}
	e := &cacheEntry{digest: digest, body: body, artifacts: artifacts, size: size, born: c.now()}
	c.m[digest] = c.ll.PushFront(e)
	c.used += size
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.m, old.digest)
		c.used -= old.size
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.used, Budget: c.budget,
	}
	now := c.now()
	if back := c.ll.Back(); back != nil {
		// Oldest by insertion is not tracked separately from LRU order;
		// scan — the cache holds few entries relative to its traffic.
		oldest, newest := now, time.Time{}
		for el := c.ll.Front(); el != nil; el = el.Next() {
			b := el.Value.(*cacheEntry).born
			if b.Before(oldest) {
				oldest = b
			}
			if b.After(newest) {
				newest = b
			}
		}
		s.OldestAgeMs = now.Sub(oldest).Milliseconds()
		s.NewestAgeMs = now.Sub(newest).Milliseconds()
	}
	return s
}
