// Package search implements the minimum-channel-width search at the
// heart of the paper's workflow — prove width W-1 unroutable, route at
// width W — on a single incremental SAT solver. The graph is encoded
// once at the upper-bound width with selector-guarded color-domain
// bounds (core.EncodeIncremental); each width probe is then one
// Solve call with a single selector assumption, so learnt
// clauses, VSIDS activity and saved phases carry over between widths
// instead of being discarded by a fresh encode+solve per width.
package search

import (
	"context"
	"fmt"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
)

// Metric names emitted into Options.Metrics. Options.MetricSuffix is
// appended (e.g. "search.minwidth.probe.ITE-log/s1") so FindChi's
// lanes remain distinguishable in one registry.
const (
	// MetricEncode times the one-off incremental encode (structural +
	// conflict + selector guard clauses streamed into the solver).
	MetricEncode = "search.minwidth.encode"
	// MetricProbe times each per-width Solve probe.
	MetricProbe = "search.minwidth.probe"
	// MetricProbes counts width probes.
	MetricProbes = "search.minwidth.probes"
	// MetricWidth gauges the best routable width found so far.
	MetricWidth = "search.minwidth.width"
	// MetricLearntReused gauges the learnt-clause database size carried
	// into the most recent probe — the clauses the probe reuses from
	// earlier widths.
	MetricLearntReused = "search.minwidth.learnt_reused"
	// MetricAssumpSolves counts assumption-based solver calls.
	MetricAssumpSolves = "sat.assumptions.solves"
	// MetricAssumpCoreSize gauges the failed-assumption core size of
	// the most recent Unsat probe (0 = genuine database unsat).
	MetricAssumpCoreSize = "sat.assumptions.core_size"
	// MetricArenaWords, MetricArenaCap and MetricArenaCollections gauge
	// the solver's clause-arena footprint at the end of the search:
	// live+garbage words, backing capacity, and arena compactions.
	MetricArenaWords       = "sat.arena.words"
	MetricArenaCap         = "sat.arena.cap_words"
	MetricArenaCollections = "sat.arena.collections"
)

// Options configures a MinWidth search.
type Options struct {
	// Strategy is the encoding + symmetry-breaking pair to search with.
	Strategy core.Strategy
	// Hi is the upper-bound width the graph is encoded at; the search
	// space is [Lo, Hi]. Hi must be >= 1.
	Hi int
	// Lo is the smallest width to probe; it defaults to 1.
	Lo int
	// Solver configures the underlying incremental solver.
	Solver sat.Options
	// Pool supplies the search's solver and receives it back when the
	// search ends, so repeated searches (batch experiments, service
	// requests) reuse clause-arena and watch-list capacity instead of
	// growing a fresh solver each time. A nil Pool builds a fresh
	// solver.
	Pool *sat.Pool
	// ProbeTimeout bounds each width probe; 0 means no per-probe bound.
	// A probe that times out ends the search with the best width found
	// so far and ProvedOptimal=false.
	ProbeTimeout time.Duration
	// Metrics receives search.minwidth.* and sat.assumptions.* metrics;
	// nil disables telemetry.
	Metrics *obs.Registry
	// MetricSuffix is appended to every metric name as ".<suffix>".
	MetricSuffix string
}

// Probe records one width probe of the search.
type Probe struct {
	Width     int
	Status    sat.Status
	Duration  time.Duration
	Conflicts int64 // conflicts spent in this probe
	Learnts   int   // learnt-clause database size going into the probe
	CoreSize  int   // failed-assumption core size (Unsat probes)
}

// Result is the outcome of a MinWidth search.
type Result struct {
	// MinWidth is the smallest width proved routable, 0 if none was.
	MinWidth int
	// Colors is the verified coloring at MinWidth (nil if MinWidth=0).
	Colors []int
	// ProvedOptimal reports that the search also proved no smaller
	// width in [Lo, Hi] is routable: Unsat at MinWidth-1 (or at Hi when
	// MinWidth=0), or MinWidth == Lo. False when a probe was cancelled
	// or timed out first.
	ProvedOptimal bool
	// Probes lists every width probe in execution order.
	Probes []Probe
	// EncodeTime is the one-off incremental encode cost; Stats are the
	// solver's cumulative statistics over all probes.
	EncodeTime time.Duration
	Stats      sat.Stats
}

// MinWidth runs the incremental minimum-width search for g under the
// options. It encodes once at opts.Hi and probes widths via selector
// assumptions on one solver. The returned error is non-nil only for
// invalid options, a decode failure (an encoding soundness bug), or a
// *robust.PanicError when the search crashed and was isolated;
// cancellation and timeouts end the search early with a partial Result.
func MinWidth(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Hi < 1 {
		return nil, fmt.Errorf("search: upper-bound width %d < 1", opts.Hi)
	}
	lo := opts.Lo
	if lo < 1 {
		lo = 1
	}
	if lo > opts.Hi {
		return nil, fmt.Errorf("search: width range [%d,%d] is empty", lo, opts.Hi)
	}
	if opts.Strategy.Encoding == nil {
		return nil, fmt.Errorf("search: options lack an encoding strategy")
	}
	// The search runs supervised: a panic in the encoder or the solver
	// comes back as a *robust.PanicError with the partial Result, and
	// the crashed solver is abandoned instead of re-entering the pool.
	res := &Result{}
	var err error
	if cerr := robust.Capture("width search "+opts.Strategy.Name(), func() {
		err = minWidthOn(ctx, g, opts, lo, res)
	}); cerr != nil {
		return res, cerr
	}
	return res, err
}

// minWidthOn is the unsupervised body of MinWidth. It returns the
// search's solver to the pool only on the panic-free path — its caller
// owns the recover boundary.
func minWidthOn(ctx context.Context, g *graph.Graph, opts Options, lo int, res *Result) error {
	suffix := ""
	if opts.MetricSuffix != "" {
		suffix = "." + opts.MetricSuffix
	}
	reg := opts.Metrics

	solver := opts.Pool.Get(opts.Solver)
	span := reg.StartSpan(MetricEncode + suffix)
	csp := core.BuildCSP(g, opts.Hi, opts.Strategy.Symmetry)
	inc := core.EncodeIncremental(csp, opts.Strategy.Encoding, lo, sat.SolverSink{S: solver})
	res.EncodeTime = span.End()

	probe := func(w int) (sat.Status, error) {
		robust.Hit(robust.FPSearchProbe, opts.Strategy.Name(), w)
		assumps, err := inc.Assumptions(w)
		if err != nil {
			return sat.Unknown, err
		}
		learnts := solver.NumLearnts()
		if reg != nil {
			reg.Gauge(MetricLearntReused + suffix).Set(int64(learnts))
			reg.Counter(MetricProbes + suffix).Inc()
			reg.Counter(MetricAssumpSolves + suffix).Inc()
		}
		probeCtx := ctx
		if opts.ProbeTimeout > 0 {
			var cancel context.CancelFunc
			probeCtx, cancel = context.WithTimeout(ctx, opts.ProbeTimeout)
			defer cancel()
		}
		before := solver.Stats.Conflicts
		sp := reg.StartSpan(MetricProbe + suffix)
		st := solver.Solve(probeCtx, assumps...)
		d := sp.End()
		p := Probe{
			Width:     w,
			Status:    st,
			Duration:  d,
			Conflicts: solver.Stats.Conflicts - before,
			Learnts:   learnts,
		}
		if st == sat.Unsat {
			p.CoreSize = len(solver.FailedAssumptions())
			if reg != nil {
				reg.Gauge(MetricAssumpCoreSize + suffix).Set(int64(p.CoreSize))
			}
		}
		res.Probes = append(res.Probes, p)
		if st == sat.Sat {
			colors, err := inc.DecodeVerifyWidth(solver.Model(), w)
			if err != nil {
				return st, err
			}
			res.MinWidth = w
			res.Colors = colors
			if reg != nil {
				reg.Gauge(MetricWidth + suffix).Set(int64(w))
			}
		}
		return st, nil
	}

	err := descendingSearch(probe, lo, opts.Hi, res)
	res.Stats = solver.Stats
	if reg != nil {
		ast := solver.ArenaStats()
		reg.Gauge(MetricArenaWords + suffix).Set(int64(ast.Words))
		reg.Gauge(MetricArenaCap + suffix).Set(int64(ast.CapWords))
		reg.Gauge(MetricArenaCollections + suffix).Set(ast.Collections)
	}
	// Reached only when no probe panicked: the solver is healthy and
	// may carry its capacity to the next search.
	opts.Pool.Put(solver)
	return err
}

// descendingSearch probes Hi, Hi-1, ... until an Unsat width (proved
// optimal), an Unknown (cancelled/timed out), or Lo routes.
func descendingSearch(probe func(int) (sat.Status, error), lo, hi int, res *Result) error {
	for w := hi; w >= lo; w-- {
		st, err := probe(w)
		if err != nil {
			return err
		}
		switch st {
		case sat.Unsat:
			res.ProvedOptimal = true
			return nil
		case sat.Unknown:
			return nil
		}
	}
	res.ProvedOptimal = true // Lo routed; nothing below Lo to disprove
	return nil
}
