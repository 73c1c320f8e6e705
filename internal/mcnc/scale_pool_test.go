package mcnc

import (
	"context"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// TestScalePoolingDecision pins which solvers of the scale-minwidth
// width searches a default sat.Pool keeps. The pool caps
// ArenaStats.RetainedWords, which counts the per-variable and
// per-literal tables as well as the clauses and lists. The direct/s1
// search of the 10x fabric retains 5,159,676 words, 61.5% of
// DefaultMaxRetainedWords (8,388,608), and is pooled; the 30x one
// retains 15,591,086, 186% of it, and is dropped. A change that brings
// the 30x solver under the cap keeps about 62 MB alive between
// searches, and one that lifts the 10x solver over it rebuilds that
// solver on every search; either fails here and must say so. Both
// orders run, since a 30x search that follows a 10x one reuses the
// pooled 10x solver. The log shows the clause and list words alone
// (2,799,758 and 8,497,490), from a run on an uncapped pool.
func TestScalePoolingDecision(t *testing.T) {
	s, err := core.ParseStrategy("direct/s1")
	if err != nil {
		t.Fatal(err)
	}
	type fabric struct {
		g  *graph.Graph
		st fpga.ScaleStats
	}
	fabrics := map[int]fabric{}
	for _, factor := range []int{10, 30} {
		g, st, err := fpga.GenerateScaled(fpga.ScaledFabric(factor))
		if err != nil {
			t.Fatal(err)
		}
		fabrics[factor] = fabric{g, st}
	}
	minWidth := func(pool *sat.Pool, factor int) {
		t.Helper()
		f := fabrics[factor]
		res, err := search.MinWidth(context.Background(), f.g, search.Options{
			Strategy: s, Lo: f.st.CliqueLB + 1, Hi: f.st.CliqueLB + 2, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.ProvedOptimal {
			t.Fatalf("%dx: width search did not prove its minimum", factor)
		}
	}
	for _, factor := range []int{10, 30} {
		pool := &sat.Pool{MaxRetainedWords: -1}
		minWidth(pool, factor)
		st := pool.Get(sat.Options{}).ArenaStats()
		words := st.CapWords + st.WatchCapWords
		t.Logf("%dx: retains %d words (arena %d, lists %d), %.1f%% of the cap %d",
			factor, words, st.CapWords, st.WatchCapWords,
			100*float64(words)/sat.DefaultMaxRetainedWords, sat.DefaultMaxRetainedWords)
	}
	for _, order := range [][]int{{10, 30}, {30, 10}} {
		var pool sat.Pool
		for _, factor := range order {
			before := pool.Stats().Oversized
			minWidth(&pool, factor)
			if dropped := pool.Stats().Oversized > before; dropped != (factor == 30) {
				t.Errorf("order %v: the %dx solver was dropped=%v, want %v", order, factor, dropped, factor == 30)
			}
		}
	}
}
