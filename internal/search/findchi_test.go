package search_test

import (
	"context"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/search"
)

func chiStrategies(t *testing.T, specs ...string) []core.Strategy {
	t.Helper()
	out := make([]core.Strategy, len(specs))
	for i, s := range specs {
		st, err := core.ParseStrategy(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st
	}
	return out
}

// TestFindChiCalibrated re-measures a calibrated instance with the
// shared incremental width-probe helper: the result must match the
// registry's RoutableW, with the heuristic bounds bracketing it.
func TestFindChiCalibrated(t *testing.T) {
	// 9symml has a genuine gap between the greedy-clique bound (5) and
	// DSATUR (7), so FindChi must take the SAT probe path to pin chi=6.
	in, err := mcnc.ByName("9symml")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := search.FindChi(context.Background(), g,
		chiStrategies(t, "ITE-linear-2+muldirect/s1"), time.Minute, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != in.RoutableW || !res.Proved {
		t.Fatalf("chi=%d proved=%v, want %d/true", res.Chi, res.Proved, in.RoutableW)
	}
	if res.LowerBound > res.Chi || res.Chi > res.UpperBound {
		t.Fatalf("bounds [%d,%d] do not bracket chi=%d", res.LowerBound, res.UpperBound, res.Chi)
	}
	if err := core.NewCSP(g, res.Chi).Verify(res.Colors); err != nil {
		t.Fatalf("returned coloring invalid: %v", err)
	}
	if res.Probes == 0 {
		t.Fatal("the SAT search ran but recorded no probes")
	}
}

// TestFindChiRacesStrategies exercises the race (two strategies) on a
// small graph whose bounds do not meet: C7 has clique 2 and chi 3.
func TestFindChiRacesStrategies(t *testing.T) {
	strategies := chiStrategies(t, "ITE-log/s1", "direct/s1")
	res, err := search.FindChi(context.Background(), graph.Cycle(7), strategies, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != 3 || !res.Proved || res.LowerBound != 2 {
		t.Fatalf("chi=%d proved=%v clq=%d, want 3/true/2 (C7)", res.Chi, res.Proved, res.LowerBound)
	}
	if res.Strategy == "" || res.Probes == 0 {
		t.Fatalf("winner %q with %d probes: the race did not run", res.Strategy, res.Probes)
	}
	if res.Search == nil || !res.Search.ProvedOptimal || res.Search.MinWidth != res.Chi {
		t.Fatalf("ChiResult.Search %+v is not the winning search", res.Search)
	}
}

// TestFindChiLaneTelemetry: with one lane or two, each lane records its
// search telemetry under its own strategy suffix, and nothing lands
// under the bare metric names.
func TestFindChiLaneTelemetry(t *testing.T) {
	g := graph.Cycle(7)
	for _, specs := range [][]string{{"ITE-log/s1"}, {"ITE-log/s1", "direct/s1"}} {
		strategies := chiStrategies(t, specs...)
		reg := obs.NewRegistry()
		res, err := search.FindChi(context.Background(), g, strategies, time.Minute, reg)
		if err != nil {
			t.Fatalf("%d lanes: %v", len(specs), err)
		}
		snap := reg.Snapshot()
		for _, s := range strategies {
			if snap.Timers[search.MetricEncode+"."+s.Name()].Count != 1 {
				t.Errorf("%d lanes: lane %s has no encode timer under its own suffix", len(specs), s.Name())
			}
		}
		if got := snap.Counters[search.MetricProbes+"."+res.Strategy]; got != int64(res.Probes) {
			t.Errorf("%d lanes: winner %s counted %d probes under its suffix, want %d",
				len(specs), res.Strategy, got, res.Probes)
		}
		if _, ok := snap.Timers[search.MetricEncode]; ok {
			t.Errorf("%d lanes: a lane recorded under the unsuffixed %s", len(specs), search.MetricEncode)
		}
	}
}

// TestFindChiCancelled: a run cancelled before it starts proves
// nothing, with one lane or two, and falls back to DSATUR's coloring.
func TestFindChiCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.Cycle(7)
	for _, specs := range [][]string{{"ITE-log/s1"}, {"ITE-log/s1", "direct/s1"}} {
		res, err := search.FindChi(ctx, g, chiStrategies(t, specs...), time.Minute, nil)
		if err != nil {
			t.Fatalf("%d lanes: %v", len(specs), err)
		}
		if res.Proved || res.Chi != res.UpperBound {
			t.Fatalf("%d lanes: chi=%d proved=%v, want the unproved DSATUR bound %d",
				len(specs), res.Chi, res.Proved, res.UpperBound)
		}
		if err := core.NewCSP(g, res.Chi).Verify(res.Colors); err != nil {
			t.Fatalf("%d lanes: fallback coloring invalid: %v", len(specs), err)
		}
	}
}

// TestFindChiLaneCountParity: one lane and two lanes answer alike. On
// alu2 (clique 6, DSATUR 8) a probe timeout too short for any probe
// leaves DSATUR's 8 unproved; with no timeout both prove chi 7.
func TestFindChiLaneCountParity(t *testing.T) {
	in, err := mcnc.ByName("alu2")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	one := chiStrategies(t, "ITE-linear-2+muldirect/s1")
	two := chiStrategies(t, "ITE-linear-2+muldirect/s1", "ITE-log/s1")
	for _, tc := range []struct {
		probeTimeout time.Duration
		chi          int
		proved       bool
	}{
		{time.Microsecond, 8, false},
		{0, 7, true},
	} {
		for _, strategies := range [][]core.Strategy{one, two} {
			res, err := search.FindChi(context.Background(), g, strategies, tc.probeTimeout, nil)
			if err != nil {
				t.Fatalf("%d lanes, probe timeout %v: %v", len(strategies), tc.probeTimeout, err)
			}
			if res.Chi != tc.chi || res.Proved != tc.proved {
				t.Fatalf("%d lanes, probe timeout %v: chi=%d proved=%v, want %d/%v",
					len(strategies), tc.probeTimeout, res.Chi, res.Proved, tc.chi, tc.proved)
			}
		}
	}
}

// TestFindChiBoundsMeet covers the no-SAT shortcut: on a complete
// graph the greedy clique and DSATUR agree, so no probe is needed.
func TestFindChiBoundsMeet(t *testing.T) {
	g := graph.Complete(6)
	res, err := search.FindChi(context.Background(), g, chiStrategies(t, "log/-"), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != 6 || !res.Proved || res.Probes != 0 {
		t.Fatalf("bounds-meet shortcut not taken: %+v", res)
	}
	if res.Strategy != "dsatur" {
		t.Fatalf("strategy %q, want dsatur shortcut", res.Strategy)
	}
}

// TestFindChiNoStrategies: an empty strategy list is an error, whether
// or not the bounds meet (K3 meets, C7 needs the race).
func TestFindChiNoStrategies(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(3), graph.Cycle(7)} {
		for _, strategies := range [][]core.Strategy{nil, {}} {
			if _, err := search.FindChi(context.Background(), g, strategies, 0, nil); err == nil {
				t.Fatalf("%d vertices: expected an error without strategies", g.N())
			}
		}
	}
}
