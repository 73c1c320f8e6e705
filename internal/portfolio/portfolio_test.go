package portfolio

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
)

// TestRunAgreesWithExact checks the race against the exact colorer, with
// lane solvers drawn from the package lane pool and from a caller's own
// pool.
func TestRunAgreesWithExact(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seed       int64
		trials     int
		strategies []core.Strategy
		opts       Options
	}{
		{"lane-pool", 21, 10, Must(PaperPortfolio3()), Options{}},
		{"own-pool", 3, 5, Must(PaperPortfolio2()), Options{Pool: &sat.Pool{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < tc.trials; trial++ {
				g := graph.Random(rng, 6+rng.Intn(10), 0.4+rng.Float64()*0.4)
				k := 2 + rng.Intn(4)
				_, want, _ := coloring.KColorable(g, k, 0)
				winner, all, err := Run(context.Background(), g, k, tc.strategies, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if (winner.Status == sat.Sat) != want {
					t.Fatalf("trial %d: portfolio says %v, exact says sat=%v", trial, winner.Status, want)
				}
				if want {
					if err := coloring.Verify(g, winner.Colors, k); err != nil {
						t.Fatalf("winner coloring invalid: %v", err)
					}
				}
				winners := 0
				for _, r := range all {
					if r.Winner {
						winners++
					}
				}
				if winners != 1 {
					t.Fatalf("%d winners", winners)
				}
			}
		})
	}
}

func TestRunCancelsLosers(t *testing.T) {
	// A hard instance: losers must report Unknown quickly after the
	// winner returns, rather than running to completion.
	g := graph.Complete(8)
	strategies, err := Strategies("ITE-log/s1", "muldirect/-", "direct/-")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	winner, all, err := Run(context.Background(), g, 7, strategies, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != sat.Unsat {
		t.Fatalf("K8 with 7 colors: %v", winner.Status)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("portfolio did not cancel losers in reasonable time")
	}
	for _, r := range all {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Strategy.Name(), r.Err)
		}
	}
}

func TestRunTimeout(t *testing.T) {
	// With an absurdly small timeout on a nontrivial instance, no
	// strategy can answer.
	rng := rand.New(rand.NewSource(5))
	g := graph.Random(rng, 120, 0.5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if _, _, err := Run(ctx, g, 9, Must(PaperPortfolio2()), Options{}); err == nil {
		t.Skip("instance solved within a microsecond; timeout path not exercised")
	}
}

// TestCombineDetectsDisagreement is the regression test for the
// silent-disagreement bug: when one strategy returns Sat and another
// Unsat (an encoding soundness bug), Run used to crown the faster one
// instead of failing loudly.
func TestCombineDetectsDisagreement(t *testing.T) {
	ss, err := Strategies("ITE-log/s1", "muldirect/-")
	if err != nil {
		t.Fatal(err)
	}
	results := []Result{
		{Strategy: ss[0], Solved: core.Solved{Status: sat.Sat}, Elapsed: time.Second},
		{Strategy: ss[1], Solved: core.Solved{Status: sat.Unsat}, Elapsed: 2 * time.Second},
	}
	if _, err := combine(results); err == nil {
		t.Fatal("contradictory Sat/Unsat answers accepted silently")
	} else {
		msg := err.Error()
		for _, name := range []string{ss[0].Name(), ss[1].Name()} {
			if !strings.Contains(msg, name) {
				t.Fatalf("disagreement error does not identify strategy %s: %v", name, err)
			}
		}
	}
}

func TestCombineIgnoresErroredAndUnknown(t *testing.T) {
	ss, err := Strategies("ITE-log/s1", "muldirect/-", "direct/-")
	if err != nil {
		t.Fatal(err)
	}
	results := []Result{
		{Strategy: ss[0], Solved: core.Solved{Status: sat.Sat}, Elapsed: time.Second, Err: errBroken},
		{Strategy: ss[1], Solved: core.Solved{Status: sat.Unknown}, Elapsed: time.Second},
		{Strategy: ss[2], Solved: core.Solved{Status: sat.Unsat}, Elapsed: 3 * time.Second},
	}
	winner, err := combine(results)
	if err != nil {
		t.Fatalf("errored Sat result should not count as a disagreement: %v", err)
	}
	if winner != 2 {
		t.Fatalf("winner = %d, want 2", winner)
	}
}

var errBroken = fmt.Errorf("broken strategy")

// TestRunTelemetryPopulated asserts that every strategy's Result
// carries per-stage telemetry and that Run mirrors it into the
// registry.
func TestRunTelemetryPopulated(t *testing.T) {
	g := graph.Complete(6)
	strategies := Must(PaperPortfolio3())
	reg := obs.NewRegistry()
	winner, all, err := Run(context.Background(), g, 6, strategies, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != sat.Sat {
		t.Fatalf("K6 with 6 colors: %v", winner.Status)
	}
	if winner.EncodeTime <= 0 || winner.SolveTime <= 0 ||
		winner.Vars == 0 || winner.Clauses == 0 {
		t.Fatalf("winner telemetry not populated: %+v", winner)
	}
	if winner.Stats.Decisions == 0 && winner.Stats.Propagations == 0 {
		t.Fatalf("winner solver stats empty: %+v", winner.Stats)
	}
	for _, r := range all {
		if r.Status == sat.Unknown && r.EncodeTime == 0 {
			continue // cancelled before encoding started
		}
		if r.EncodeTime <= 0 || r.Vars == 0 || r.Clauses == 0 {
			t.Fatalf("strategy %s telemetry not populated: %+v", r.Strategy.Name(), r)
		}
	}
	snap := reg.Snapshot()
	name := winner.Strategy.Name()
	if ts := snap.Timers[MetricSolve+"."+name]; ts.Count == 0 {
		t.Fatalf("registry missing solve timer for winner %s: %+v", name, snap.Timers)
	}
	if ts := snap.Timers[MetricEncode+"."+name]; ts.Count == 0 {
		t.Fatalf("registry missing encode timer for winner %s", name)
	}
	if v := snap.Gauges[MetricCNFVars+"."+name]; v == 0 {
		t.Fatalf("registry missing CNF vars gauge for winner %s", name)
	}
	if snap.Counters[MetricWins+"."+name] != 1 {
		t.Fatalf("registry missing win counter for %s: %+v", name, snap.Counters)
	}
	if _, ok := snap.Gauges[MetricWinnerMargin]; !ok {
		t.Fatalf("registry missing winner margin gauge: %+v", snap.Gauges)
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, all, err := Run(ctx, graph.Complete(8), 7, Must(PaperPortfolio3()), Options{})
	if err == nil {
		t.Fatal("pre-cancelled context produced an answer")
	}
	for _, r := range all {
		if r.Status != sat.Unknown {
			t.Fatalf("strategy %s ran to %v under a cancelled context", r.Strategy.Name(), r.Status)
		}
	}
}

func TestRunEmptyStrategies(t *testing.T) {
	if _, _, err := Run(context.Background(), graph.New(1), 1, nil, Options{}); err == nil {
		t.Fatal("empty portfolio accepted")
	}
}

func TestStrategiesParse(t *testing.T) {
	ss, err := Strategies("muldirect/s1", "log/b1")
	if err != nil || len(ss) != 2 {
		t.Fatalf("%v %v", ss, err)
	}
	if _, err := Strategies("bogus/s1"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestPaperPortfolios(t *testing.T) {
	p3, err := PaperPortfolio3()
	if err != nil {
		t.Fatal(err)
	}
	if len(p3) != 3 || p3[0].Name() != "ITE-linear-2+muldirect/s1" ||
		p3[1].Name() != "muldirect-3+muldirect/s1" || p3[2].Name() != "ITE-linear-2+direct/s1" {
		t.Fatalf("portfolio 3 = %v", names(p3))
	}
	if len(Must(PaperPortfolio2())) != 2 {
		t.Fatal("portfolio 2 size")
	}
}

func names(ss []core.Strategy) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name()
	}
	return out
}
