package mcnc

import (
	"context"
	"fmt"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/search"
)

// ChiResult is the outcome of FindChi: the measured chromatic number of
// a conflict graph (the instance's exact minimum channel width) plus
// the heuristic bounds that framed the search.
type ChiResult struct {
	// Chi is the smallest width proved routable; 0 if none was found
	// before cancellation.
	Chi int
	// Colors is a verified coloring with Chi colors.
	Colors []int
	// Proved reports that Chi-1 was also proved unroutable (or Chi hit
	// the clique lower bound, which proves optimality combinatorially).
	Proved bool
	// LowerBound is the greedy-clique size, UpperBound the DSATUR color
	// count that seeded the search.
	LowerBound, UpperBound int
	// Strategy names the winning strategy, Probes counts its width
	// probes, Elapsed is the winner's wall-clock search time.
	Strategy string
	Probes   int
	Elapsed  time.Duration
}

// FindChi measures the chromatic number of a conflict graph — the
// calibrated RoutableW of an instance — with the incremental width
// search, descending from the DSATUR upper bound. It is the one width-
// probe loop shared by the calibration and seed-scan studies of package
// experiments: each strategy encodes once at the upper bound and probes
// widths via selector assumptions on a single solver; with more than
// one strategy the searches race and the first completed one wins. A
// clique of size c proves chi >= c, so the search floor is the
// greedy-clique bound and reaching it skips the final Unsat probe.
// probeTimeout bounds each width probe (0 = none); reg (may be nil)
// receives the search.minwidth.* telemetry.
func FindChi(ctx context.Context, g *graph.Graph, strategies []core.Strategy, probeTimeout time.Duration, reg *obs.Registry) (ChiResult, error) {
	if len(strategies) == 0 {
		return ChiResult{}, fmt.Errorf("mcnc: FindChi needs at least one strategy")
	}
	res := ChiResult{LowerBound: len(coloring.GreedyClique(g))}
	colors, ub := coloring.DSATUR(g)
	res.UpperBound = ub
	if ub == 0 { // empty graph
		res.Proved = true
		return res, nil
	}
	lo := res.LowerBound
	if lo < 1 {
		lo = 1
	}
	if lo >= ub {
		// The heuristic bounds already meet: DSATUR's coloring is
		// optimal and no SAT probe is needed.
		res.Chi, res.Colors, res.Proved, res.Strategy = ub, colors, true, "dsatur"
		return res, nil
	}
	opts := search.Options{
		Lo:           lo,
		Hi:           ub,
		ProbeTimeout: probeTimeout,
	}
	var sres *search.Result
	if len(strategies) == 1 {
		opts.Strategy = strategies[0]
		opts.Metrics = reg
		opts.MetricSuffix = strategies[0].Name()
		r, err := search.MinWidth(ctx, g, opts)
		if err != nil {
			return res, err
		}
		sres, res.Strategy = r, strategies[0].Name()
		res.Elapsed = sumProbeTime(r)
	} else {
		win, _, err := portfolio.RunMinWidth(ctx, g, opts, strategies, reg)
		if err != nil {
			return res, err
		}
		sres, res.Strategy = win.Search, win.Strategy.Name()
		res.Elapsed = win.Elapsed
	}
	res.Probes = len(sres.Probes)
	if sres.MinWidth == 0 {
		// DSATUR already routed at ub, so the search not finding any
		// routable width means either cancellation (fall back to the
		// heuristic coloring, unproved) or an Unsat at ub — which
		// contradicts the heuristic coloring and means the winning
		// encoding is unsound.
		if sres.ProvedOptimal {
			return res, fmt.Errorf(
				"mcnc: strategy %s proves width %d unroutable but DSATUR routed it; the encoding is unsound",
				res.Strategy, ub)
		}
		res.Chi, res.Colors, res.Proved = ub, colors, false
		return res, nil
	}
	res.Chi, res.Colors = sres.MinWidth, sres.Colors
	// The search floor is the clique lower bound, so a completed search
	// proves chi exactly: either Unsat at Chi-1, or Chi == LowerBound
	// and a clique of that size certifies no smaller width exists.
	res.Proved = sres.ProvedOptimal
	return res, nil
}

func sumProbeTime(r *search.Result) time.Duration {
	d := r.EncodeTime
	for _, p := range r.Probes {
		d += p.Duration
	}
	return d
}
