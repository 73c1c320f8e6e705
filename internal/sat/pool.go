package sat

import (
	"sync"
	"sync/atomic"
)

// Pool is a concurrency-safe pool of reusable Solvers built on
// sync.Pool. Repeated solver launches — width-search probes, portfolio
// lanes, batch experiment runs — draw a reset solver whose clause
// arena, watch lists and trail keep the capacity of earlier problems,
// instead of re-growing a fresh Solver from zero each time.
//
// The zero value is ready to use. Get hands out a solver configured
// for the given options; Put returns it once no solve is running and
// no other goroutine can still call Stop on it (join any cancellation
// watcher first — see SolveAssumingContext for the pattern). A nil
// *Pool is valid too: Get builds a fresh solver and Put drops it.
type Pool struct {
	// MaxRetainedWords caps the footprint a solver may retain to be
	// pooled: a solver whose clause-arena capacity plus watch-list
	// capacity (in 4-byte words, see ArenaStats) exceeds the cap is
	// dropped by Put instead of recycled, so one huge instance in a
	// mixed-size workload cannot permanently bloat every later borrower.
	// 0 selects DefaultMaxRetainedWords; a negative value disables the
	// cap. Set it before the pool is first used.
	MaxRetainedWords int

	p sync.Pool

	gets        atomic.Int64
	reuses      atomic.Int64
	collections atomic.Int64
	freedWords  atomic.Int64
	arenaWords  atomic.Int64
	arenaCap    atomic.Int64
	oversized   atomic.Int64
}

// DefaultMaxRetainedWords is the retained-footprint cap applied when
// Pool.MaxRetainedWords is zero: 8M words (32 MiB), room for every
// Table-2 instance while still shedding pathological outliers.
const DefaultMaxRetainedWords = 1 << 23

// Get returns a solver reset and configured with opts. The solver is
// either a reused instance (retaining allocated capacity) or freshly
// created.
func (p *Pool) Get(opts Options) *Solver {
	if p == nil {
		return New(opts)
	}
	p.gets.Add(1)
	if s, ok := p.p.Get().(*Solver); ok && s != nil {
		p.reuses.Add(1)
		s.Reset(opts)
		return s
	}
	return New(opts)
}

// Put returns a solver to the pool for reuse and folds its arena
// statistics into the pool's counters. A solver whose retained
// footprint exceeds MaxRetainedWords is dropped (counted in
// PoolStats.Oversized) rather than pooled. The caller must not use the
// solver afterwards, and no goroutine may still hold a Stop reference
// to it.
func (p *Pool) Put(s *Solver) {
	if p == nil || s == nil {
		return
	}
	st := s.ArenaStats()
	p.collections.Add(st.Collections)
	p.freedWords.Add(st.FreedWords)
	p.arenaWords.Store(int64(st.Words))
	p.arenaCap.Store(int64(st.CapWords))
	limit := p.MaxRetainedWords
	if limit == 0 {
		limit = DefaultMaxRetainedWords
	}
	if limit > 0 && st.CapWords+st.WatchCapWords > limit {
		p.oversized.Add(1)
		return
	}
	p.p.Put(s)
}

// PoolStats is a point-in-time view of pool activity, the raw material
// of the sat.reset.* observability gauges.
type PoolStats struct {
	// Gets counts solvers handed out; Reuses counts how many of those
	// were recycled instances (Gets-Reuses solvers were built fresh).
	Gets, Reuses int64
	// Collections and FreedWords accumulate the arena compactions and
	// reclaimed words of every solver returned via Put.
	Collections, FreedWords int64
	// ArenaWords and ArenaCapWords are the arena length and capacity of
	// the most recently returned solver — a sample of how much clause
	// storage a pooled solver retains for its next use.
	ArenaWords, ArenaCapWords int64
	// Oversized counts solvers dropped by Put because their retained
	// footprint exceeded MaxRetainedWords.
	Oversized int64
}

// Stats returns a snapshot of the pool counters. It is safe to call
// concurrently with Get/Put.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:          p.gets.Load(),
		Reuses:        p.reuses.Load(),
		Collections:   p.collections.Load(),
		FreedWords:    p.freedWords.Load(),
		ArenaWords:    p.arenaWords.Load(),
		ArenaCapWords: p.arenaCap.Load(),
		Oversized:     p.oversized.Load(),
	}
}
