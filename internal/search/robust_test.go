package search_test

import (
	"context"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// TestMinWidthIsolatesProbePanic: a panic inside a width probe must
// come back as a *robust.PanicError with the partial result — never
// crash — and the crashed solver must not re-enter the pool.
func TestMinWidthIsolatesProbePanic(t *testing.T) {
	s := mustStrategy(t, "ITE-linear-2+muldirect/s1")
	robust.SetFailpoint(robust.FPSearchProbe, func(args ...any) {
		if args[1].(int) == 3 { // crash mid-search, after the W=4 probe
			panic("injected probe crash")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPSearchProbe) })

	var pool sat.Pool
	g := graph.Complete(4) // needs exactly 4 colors
	res, err := search.MinWidth(context.Background(), g, search.Options{
		Strategy: s,
		Hi:       5,
		Pool:     &pool,
	})
	pe, ok := robust.AsPanic(err)
	if !ok {
		t.Fatalf("probe panic not isolated: err = %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lacks a stack")
	}
	if res == nil || res.MinWidth != 4 {
		t.Fatalf("partial result lost: %+v", res)
	}

	// The crashed solver was abandoned: a follow-up search on the same
	// pool must get a fresh instance (no reuse) and still work.
	robust.ClearFailpoint(robust.FPSearchProbe)
	res, err = search.MinWidth(context.Background(), g, search.Options{
		Strategy: s,
		Hi:       5,
		Pool:     &pool,
	})
	if err != nil || !res.ProvedOptimal || res.MinWidth != 4 {
		t.Fatalf("pool poisoned by crashed solver: res=%+v err=%v", res, err)
	}
	if st := pool.Stats(); st.Reuses != 0 {
		t.Fatalf("crashed solver re-entered the pool: %+v", st)
	}
}

// TestMinWidthReturnsSolverOnHealthyPath pins the counterpart: an
// error-free search recycles its solver, so later searches reuse it.
// Under the race detector sync.Pool deliberately drops 1 in 4 Puts
// (and the pool may also come up empty after GC), so run enough
// searches that at least one reuse is overwhelmingly likely instead
// of demanding the very next Get hits.
func TestMinWidthReturnsSolverOnHealthyPath(t *testing.T) {
	s := mustStrategy(t, "ITE-linear-2+muldirect/s1")
	var pool sat.Pool
	g := graph.Complete(4)
	for i := 0; i < 10; i++ {
		res, err := search.MinWidth(context.Background(), g, search.Options{
			Strategy: s,
			Hi:       5,
			Pool:     &pool,
		})
		if err != nil || res.MinWidth != 4 {
			t.Fatalf("run %d: res=%+v err=%v", i, res, err)
		}
	}
	if st := pool.Stats(); st.Reuses == 0 {
		t.Fatalf("healthy solver not recycled: %+v", st)
	}
}

// TestFindChiCountsCrashedLane: a crashed width-search lane is counted
// in MetricPanics whether it races alone or beside others. Beside a
// healthy lane the race goes on and the survivor's answer stands;
// alone, the crash is FindChi's error.
func TestFindChiCountsCrashedLane(t *testing.T) {
	robust.SetFailpoint(robust.FPSearchProbe, func(args ...any) {
		if args[0].(string) == "direct/s1" {
			panic("injected probe crash")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPSearchProbe) })
	g := graph.Cycle(7) // clique 2, chi 3: the search runs

	reg := obs.NewRegistry()
	res, err := search.FindChi(context.Background(), g,
		[]core.Strategy{mustStrategy(t, "ITE-log/s1"), mustStrategy(t, "direct/s1")}, time.Minute, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != 3 || !res.Proved || res.Strategy != "ITE-log/s1" {
		t.Fatalf("chi=%d proved=%v by %q, want 3/true by the surviving lane", res.Chi, res.Proved, res.Strategy)
	}
	if n := reg.Snapshot().Counters[search.MetricPanics]; n != 1 {
		t.Fatalf("%s = %d with two lanes, want 1", search.MetricPanics, n)
	}

	reg = obs.NewRegistry()
	_, err = search.FindChi(context.Background(), g, []core.Strategy{mustStrategy(t, "direct/s1")}, time.Minute, reg)
	if _, ok := robust.AsPanic(err); !ok {
		t.Fatalf("a lone crashed lane returned err = %v, want the panic", err)
	}
	if n := reg.Snapshot().Counters[search.MetricPanics]; n != 1 {
		t.Fatalf("%s = %d with one lane, want 1", search.MetricPanics, n)
	}
}
