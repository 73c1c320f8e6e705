package search

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
)

// MetricPanics counts width-search lanes that crashed and were isolated.
// It is the counter portfolio.Run increments for its crashed decision
// lanes, so one registry reports both.
const MetricPanics = "portfolio.panics"

// ChiResult is the outcome of FindChi: the measured chromatic number of
// a conflict graph (the instance's exact minimum channel width) plus
// the heuristic bounds that framed the search.
type ChiResult struct {
	// Chi is the smallest width proved routable, or — when no search
	// completed — the best width a search routed, else DSATUR's; 0 only
	// for an empty graph.
	Chi int
	// Colors is a verified coloring with Chi colors.
	Colors []int
	// Proved reports that Chi-1 was also proved unroutable (or Chi hit
	// the clique lower bound, which proves optimality combinatorially).
	Proved bool
	// LowerBound is the greedy-clique size, UpperBound the DSATUR color
	// count that seeded the search — on a weighted graph, the span of
	// DSATUR's coloring spread by the largest edge distance.
	LowerBound, UpperBound int
	// Strategy names the winning strategy, Probes counts its width
	// probes, Elapsed is its wall-clock search time.
	Strategy string
	Probes   int
	Elapsed  time.Duration
	// Search is the winning search, or the best partial one when none
	// completed; nil when the bounds meet and no search ran.
	Search *Result
}

// lane is one strategy's width search within FindChi.
type lane struct {
	strategy core.Strategy
	res      *Result
	elapsed  time.Duration
	err      error
}

// FindChi measures the chromatic number of a conflict graph — the
// calibrated RoutableW of an instance — with the incremental width
// search. The range runs from the greedy-clique bound (a clique of size
// c proves chi >= c, so reaching it skips the final Unsat probe) up to
// the DSATUR bound. Each strategy runs MinWidth over that range in its
// own goroutine on a fresh solver, and the first completed search
// cancels the rest; one strategy is a race of one. probeTimeout bounds
// each width probe (0 = none); reg (may be nil) receives each lane's
// search.minwidth.* telemetry under its strategy name.
//
// When no search completes, FindChi returns the best width any search
// routed, or else DSATUR's, unproved. It fails when two completed
// searches disagree, when a completed search routes no width up to
// DSATUR's witness (either means an unsound encoding), or when no
// search completed and a lane failed.
func FindChi(ctx context.Context, g *graph.Graph, strategies []core.Strategy, probeTimeout time.Duration, reg *obs.Registry) (ChiResult, error) {
	if len(strategies) == 0 {
		return ChiResult{}, fmt.Errorf("search: FindChi needs at least one strategy")
	}
	res := ChiResult{LowerBound: len(coloring.GreedyClique(g))}
	colors, ub := coloring.DSATUR(g)
	if g.Weighted() {
		// DSATUR ignores distances. Spacing its colors d apart, d the
		// largest edge distance, satisfies every |c(u)-c(v)| >= d(u,v).
		d := g.MaxEdgeWeight()
		for v := range colors {
			colors[v] *= d
		}
		ub = (ub-1)*d + 1
	}
	res.UpperBound = ub
	if ub == 0 { // empty graph
		res.Proved = true
		return res, nil
	}
	lo := max(res.LowerBound, 1)
	if lo >= ub {
		// The heuristic bounds already meet: DSATUR's coloring is
		// optimal and no SAT probe is needed.
		res.Chi, res.Colors, res.Proved, res.Strategy = ub, colors, true, "dsatur"
		return res, nil
	}

	lanes := raceLanes(ctx, g, strategies, Options{Lo: lo, Hi: ub, ProbeTimeout: probeTimeout, Metrics: reg})
	winner, best := -1, -1
	for i, l := range lanes {
		if l.err != nil {
			continue
		}
		if !l.res.ProvedOptimal {
			// A partial search: keep the one that routed the smallest
			// width, in case no search completes.
			if best < 0 || l.res.MinWidth > 0 && (lanes[best].res.MinWidth == 0 || l.res.MinWidth < lanes[best].res.MinWidth) {
				best = i
			}
			continue
		}
		if l.res.MinWidth == 0 {
			// DSATUR routed ub, so a completed search that routes no
			// width in range contradicts the heuristic coloring.
			return res, fmt.Errorf(
				"search: strategy %s proves width %d unroutable but DSATUR routed it; the encoding is unsound",
				l.strategy.Name(), ub)
		}
		if winner >= 0 && l.res.MinWidth != lanes[winner].res.MinWidth {
			return res, fmt.Errorf(
				"search: contradictory minimum widths: strategy %s proves %d but strategy %s proves %d; at least one encoding is unsound",
				lanes[winner].strategy.Name(), lanes[winner].res.MinWidth, l.strategy.Name(), l.res.MinWidth)
		}
		if winner < 0 || l.elapsed < lanes[winner].elapsed {
			winner = i
		}
	}
	if winner < 0 {
		for _, l := range lanes {
			if l.err != nil {
				return res, fmt.Errorf("search: strategy %s failed: %w", l.strategy.Name(), l.err)
			}
		}
		winner = best
	}
	w := lanes[winner]
	res.Strategy, res.Probes, res.Elapsed, res.Search = w.strategy.Name(), len(w.res.Probes), w.elapsed, w.res
	// The search floor is the clique lower bound, so a completed search
	// proves chi exactly: either Unsat at Chi-1, or Chi == LowerBound
	// and a clique of that size certifies no smaller width exists.
	res.Proved = w.res.ProvedOptimal
	if w.res.MinWidth == 0 {
		res.Chi, res.Colors = ub, colors
	} else {
		res.Chi, res.Colors = w.res.MinWidth, w.res.Colors
	}
	return res, nil
}

// raceLanes runs MinWidth under opts once per strategy, concurrently,
// each lane recording under its strategy name. The first search to
// complete cancels the others. A crashed lane is counted in
// MetricPanics and the race goes on with the survivors.
func raceLanes(ctx context.Context, g *graph.Graph, strategies []core.Strategy, opts Options) []lane {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lanes := make([]lane, len(strategies))
	var wg sync.WaitGroup
	for i, s := range strategies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Strategy, o.MetricSuffix = s, s.Name()
			start := time.Now()
			res, err := MinWidth(ctx, g, o)
			lanes[i] = lane{strategy: s, res: res, elapsed: time.Since(start), err: err}
			if _, ok := robust.AsPanic(err); ok && opts.Metrics != nil {
				opts.Metrics.Counter(MetricPanics).Inc()
			}
			if err == nil && res.ProvedOptimal {
				cancel()
			}
		}()
	}
	wg.Wait()
	return lanes
}
