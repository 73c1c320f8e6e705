package search_test

import (
	"context"
	"math/rand"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

func mustStrategy(t *testing.T, spec string) core.Strategy {
	t.Helper()
	s, err := core.ParseStrategy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// canColor decides k-colorability exactly by backtracking — the
// reference oracle for the property tests.
func canColor(g *graph.Graph, k int) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	if k < 1 {
		return false
	}
	adj := make([][]int, n)
	g.ForEachEdge(func(u, v int) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	})
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			for _, u := range adj[v] {
				if colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	return rec(0)
}

// singleShot solves the width-w decision problem from scratch, the way
// the pipeline did before the incremental search existed.
func singleShot(t *testing.T, g *graph.Graph, w int, s core.Strategy) (sat.Status, []int) {
	t.Helper()
	enc := core.Encode(core.BuildCSP(g, w, s.Symmetry), s.Encoding)
	res := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{})
	if res.Status != sat.Sat {
		return res.Status, nil
	}
	colors, err := enc.DecodeVerify(res.Model)
	if err != nil {
		t.Fatalf("single-shot decode at width %d: %v", w, err)
	}
	return sat.Sat, colors
}

// TestMinWidthAgainstSingleShotAndBrute is the cross-check property
// test: on random CSPs, every incremental width probe agrees with a
// fresh single-shot solve of that width, the found minimum width is the
// backtracking chromatic number, and the Sat model decodes to a valid
// coloring.
func TestMinWidthAgainstSingleShotAndBrute(t *testing.T) {
	specs := []string{
		"log/-",
		"direct/s1",
		"muldirect/b1",
		"ITE-log/c1",
		"ITE-linear/-",
		"ITE-log-2+ITE-linear/s1",
		"ITE-linear-2+muldirect/s1",
		"muldirect-3+muldirect/c1",
		"direct-3+direct/b1",
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 18; round++ {
		n := 4 + rng.Intn(5)
		g := graph.Random(rng, n, 0.3+0.4*rng.Float64())
		strat := mustStrategy(t, specs[round%len(specs)])
		hi := n // n colors always suffice

		chi := 1
		for !canColor(g, chi) {
			chi++
		}

		res, err := search.MinWidth(context.Background(), g, search.Options{
			Strategy: strat,
			Lo:       1,
			Hi:       hi,
		})
		if err != nil {
			t.Fatalf("round %d %s: %v", round, strat.Name(), err)
		}
		if !res.ProvedOptimal {
			t.Fatalf("round %d %s: search did not complete", round, strat.Name())
		}
		if res.MinWidth != chi {
			t.Fatalf("round %d %s: MinWidth %d, chromatic number %d",
				round, strat.Name(), res.MinWidth, chi)
		}
		if err := core.BuildCSP(g, chi, strat.Symmetry).Verify(res.Colors); err != nil {
			t.Fatalf("round %d %s: returned coloring invalid: %v", round, strat.Name(), err)
		}
		// Every probe verdict must match a fresh single-shot solve at
		// that width.
		for _, p := range res.Probes {
			want, _ := singleShot(t, g, p.Width, strat)
			if p.Status != want {
				t.Fatalf("round %d %s width %d: incremental %v, single-shot %v",
					round, strat.Name(), p.Width, p.Status, want)
			}
		}
	}
}

// TestMinWidthCalibratedInstance runs the search on a calibrated MCNC
// instance: it must route at RoutableW, prove RoutableW-1 unroutable,
// and surface the learnt-clause reuse and probe telemetry.
func TestMinWidthCalibratedInstance(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := search.MinWidth(context.Background(), g, search.Options{
		Strategy: mustStrategy(t, "ITE-linear-2+muldirect/s1"),
		Lo:       1,
		Hi:       in.RoutableW + 2,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinWidth != in.RoutableW || !res.ProvedOptimal {
		t.Fatalf("MinWidth=%d ProvedOptimal=%v, want %d/true", res.MinWidth, res.ProvedOptimal, in.RoutableW)
	}
	last := res.Probes[len(res.Probes)-1]
	if last.Width != in.UnroutableW() || last.Status != sat.Unsat {
		t.Fatalf("last probe %+v, want Unsat at width %d", last, in.UnroutableW())
	}
	if last.CoreSize == 0 {
		t.Fatal("Unsat at W-1 must blame the selector assumption, not the database")
	}
	snap := reg.Snapshot()
	if got := snap.Timers[search.MetricProbe].Count; got != int64(len(res.Probes)) {
		t.Fatalf("probe timer count %d, want %d", got, len(res.Probes))
	}
	if snap.Counters[search.MetricAssumpSolves] != int64(len(res.Probes)) {
		t.Fatalf("assumption solve counter %d, want %d",
			snap.Counters[search.MetricAssumpSolves], len(res.Probes))
	}
	if snap.Gauges[search.MetricWidth] != int64(in.RoutableW) {
		t.Fatalf("width gauge %d, want %d", snap.Gauges[search.MetricWidth], in.RoutableW)
	}
	if _, ok := snap.Gauges[search.MetricLearntReused]; !ok {
		t.Fatal("learnt-reuse gauge missing from snapshot")
	}
	if snap.Timers[search.MetricEncode].Count != 1 {
		t.Fatal("incremental search must encode exactly once")
	}
}

func TestMinWidthCancelled(t *testing.T) {
	g := graph.Complete(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := search.MinWidth(ctx, g, search.Options{
		Strategy: mustStrategy(t, "log/-"),
		Hi:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvedOptimal {
		t.Fatal("cancelled search must not claim a completed proof")
	}
}

func TestMinWidthOptionValidation(t *testing.T) {
	g := graph.Complete(3)
	if _, err := search.MinWidth(context.Background(), g, search.Options{Hi: 0}); err == nil {
		t.Fatal("Hi=0 must be rejected")
	}
	if _, err := search.MinWidth(context.Background(), g, search.Options{
		Strategy: mustStrategy(t, "log/-"), Hi: 2, Lo: 5,
	}); err == nil {
		t.Fatal("empty width range must be rejected")
	}
	if _, err := search.MinWidth(context.Background(), g, search.Options{Hi: 3}); err == nil {
		t.Fatal("missing encoding must be rejected")
	}
}
