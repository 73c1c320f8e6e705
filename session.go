package fpgasat

// A Session is the facade-level entry point for callers that solve
// many problems — CLI batch runs, experiment sweeps, a long-lived
// service. It owns a solver pool so that every solve, width search and
// portfolio run draws an arena-backed solver whose clause storage,
// watch lists and trail keep the capacity of earlier problems, and it
// records the solver-reuse and arena gauges (sat.reset.*, sat.arena.*)
// into its metrics registry so the memory behaviour is visible in
// -metrics-out dumps.

import (
	"context"
	"fmt"

	"fpgasat/internal/core"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// Pool-related re-exports.
type (
	// SolverPool is a concurrency-safe pool of reusable solvers.
	SolverPool = sat.Pool
	// SolverPoolStats snapshots pool activity (gets, reuses, arena
	// footprint of the last returned solver).
	SolverPoolStats = sat.PoolStats
	// SolverArenaStats snapshots one solver's clause-arena state.
	SolverArenaStats = sat.ArenaStats
)

// Session metric names (gauges in the session's Metrics registry).
const (
	// MetricPoolSolvers is the cumulative number of solvers the session
	// pool handed out; MetricPoolReuses counts how many of those were
	// recycled instances rather than fresh allocations.
	MetricPoolSolvers = "sat.reset.solvers"
	MetricPoolReuses  = "sat.reset.count"
	// MetricArenaWords / MetricArenaCapWords sample the clause-arena
	// length and capacity of the most recently pooled solver.
	MetricArenaWords    = "sat.arena.words"
	MetricArenaCapWords = "sat.arena.cap_words"
	// MetricPoolFreedWords accumulates the arena words reclaimed by
	// garbage compaction across all pooled solvers.
	MetricPoolFreedWords = "sat.arena.freed_words"
	// MetricPoolOversized counts solvers the pool dropped instead of
	// retaining because their footprint exceeded the pool cap.
	MetricPoolOversized = "sat.reset.oversized"
)

// Session is a reusable solving context: one solver pool plus an
// optional metrics registry shared by all its operations. Create one
// per process (or per tenant) and use it for every request; it is safe
// for concurrent use.
type Session struct {
	pool    SolverPool
	metrics *Metrics
}

// NewSession returns a Session recording into m, which may be nil for
// no telemetry.
func NewSession(m *Metrics) *Session {
	return &Session{metrics: m}
}

// Pool exposes the session's solver pool, e.g. to thread into
// lower-level APIs (SearchOptions.Pool) or experiment runners.
func (s *Session) Pool() *SolverPool { return &s.pool }

// Metrics returns the session's registry (nil when none was given).
func (s *Session) Metrics() *Metrics { return s.metrics }

// PoolStats snapshots the session pool's reuse counters, publishing
// them to the session's metrics registry as a side effect — call it
// before dumping metrics when the pool was driven through Pool()
// rather than the Session methods.
func (s *Session) PoolStats() SolverPoolStats {
	s.recordPoolMetrics()
	return s.pool.Stats()
}

// recordPoolMetrics publishes the pool's reuse and arena gauges.
func (s *Session) recordPoolMetrics() {
	if s.metrics == nil {
		return
	}
	ps := s.pool.Stats()
	s.metrics.Gauge(MetricPoolSolvers).Set(ps.Gets)
	s.metrics.Gauge(MetricPoolReuses).Set(ps.Reuses)
	s.metrics.Gauge(MetricArenaWords).Set(ps.ArenaWords)
	s.metrics.Gauge(MetricArenaCapWords).Set(ps.ArenaCapWords)
	s.metrics.Gauge(MetricPoolFreedWords).Set(ps.FreedWords)
	s.metrics.Gauge(MetricPoolOversized).Set(ps.Oversized)
}

// SolveGraph solves the k-coloring of g under one strategy on a pooled
// solver (core.Strategy.Solve: the encoding streams straight into the
// solver, with no intermediate CNF). For Sat it returns the verified
// coloring. The solve is supervised: a panic anywhere in encode, solve
// or decode comes back as a *robust.PanicError (Status Unknown), and
// the crashed solver is abandoned instead of returning to the pool.
func (s *Session) SolveGraph(ctx context.Context, g *Graph, k int, strategy Strategy, opts SolverOptions) (Status, []int, error) {
	if strategy.Encoding == nil {
		return Unknown, nil, fmt.Errorf("fpgasat: strategy lacks an encoding")
	}
	var res core.Solved
	var err error
	cerr := robust.Capture("session graph solve "+strategy.Name(), func() {
		robust.Hit(robust.FPSessionSolve, "graph")
		res, err = strategy.Solve(ctx, g, k, &s.pool, opts)
	})
	if cerr != nil {
		res, err = core.Solved{}, cerr
	}
	s.recordPoolMetrics()
	return res.Status, res.Colors, err
}

// MinWidth runs the incremental minimum-width search on a pooled
// solver, with the session's metrics registry filled in when the
// options leave it nil.
func (s *Session) MinWidth(ctx context.Context, g *Graph, opts SearchOptions) (*SearchResult, error) {
	if opts.Pool == nil {
		opts.Pool = &s.pool
	}
	if opts.Metrics == nil {
		opts.Metrics = s.metrics
	}
	res, err := search.MinWidth(ctx, g, opts)
	s.recordPoolMetrics()
	return res, err
}

// PortfolioHardened races the strategies on the k-coloring of g with
// every lane drawing its solver from the session pool. The supervision
// layer (paranoid answer checking, per-lane watchdogs, budgeted
// retries) is configured through opts; opts.Metrics and opts.Pool
// default to the session's registry and pool.
func (s *Session) PortfolioHardened(ctx context.Context, g *Graph, k int, strategies []Strategy, opts PortfolioOptions) (PortfolioResult, []PortfolioResult, error) {
	if opts.Metrics == nil {
		opts.Metrics = s.metrics
	}
	if opts.Pool == nil {
		opts.Pool = &s.pool
	}
	win, all, err := portfolio.Run(ctx, g, k, strategies, opts)
	s.recordPoolMetrics()
	return win, all, err
}
