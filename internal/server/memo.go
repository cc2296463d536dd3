package server

import (
	"slices"
	"sync"

	"svtsim/internal/exp"
)

// keepMemos bounds the phase-1 memos the server keeps. Every distinct
// port, fault spec and fault seed a density, storm or lb request names
// adds one, so without a bound a long-lived daemon's memory would grow
// with the specs it has seen.
const keepMemos = 8

// memoKey names the configuration a phase-1 memo serves: the canonical
// request's port and its fault fields. The fault spec is keyed by its
// request text, not fault.Spec.String, which rounds delays to two
// decimals and leaves out the seed; two spellings of one spec get two
// memos, which costs a re-simulation, never a wrong run. Topology and
// pool width stay out: a phase-1 run depends on neither.
type memoKey struct {
	port, faults string
	faultSeed    int64
}

// memoSet is the server's phase-1 memos, least recently used first.
// Each memo's entries are bounded by its key space (mode, workload
// class, size and placement) plus one memcached entry per VM index up
// to the largest VMs served; the set holds at most keepMemos memos. The
// zero memoSet is empty, so the set is built by the first request that
// needs it.
type memoSet struct {
	mu    sync.Mutex
	memos []memoEntry
}

type memoEntry struct {
	key  memoKey
	memo *exp.Memo
}

// get returns the memo a canonical request's session shares, or nil for
// a session that keeps its own: a kind with no phase-1 runs, or a traced
// request, whose plane must come from a machine it actually ran.
func (ms *memoSet) get(req *Request) *exp.Memo {
	switch {
	case req.Trace:
		return nil
	case req.Kind != KindDensity && req.Kind != KindStorm && req.Kind != KindLB:
		return nil
	}
	key := memoKey{port: req.Port, faults: req.Faults, faultSeed: req.FaultSeed}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var e memoEntry
	if i := slices.IndexFunc(ms.memos, func(e memoEntry) bool { return e.key == key }); i >= 0 {
		e = ms.memos[i]
		ms.memos = slices.Delete(ms.memos, i, i+1)
	} else {
		e = memoEntry{key: key, memo: new(exp.Memo)}
		if len(ms.memos) == keepMemos {
			ms.memos = slices.Delete(ms.memos, 0, 1)
		}
	}
	ms.memos = append(ms.memos, e)
	return e.memo
}
