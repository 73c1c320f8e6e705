package portfolio

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/share"
)

func TestReplicate(t *testing.T) {
	ss := Must(PaperPortfolio2())
	got := Replicate(ss, 3)
	if len(got) != 6 {
		t.Fatalf("len = %d, want 6", len(got))
	}
	// Interleaved: a truncated prefix keeps both strategies represented.
	if got[0].Name() != ss[0].Name() || got[1].Name() != ss[1].Name() ||
		got[2].Name() != ss[0].Name() {
		t.Fatalf("not interleaved: %s, %s, %s", got[0].Name(), got[1].Name(), got[2].Name())
	}
	if got := Replicate(ss, 0); len(got) != 2 {
		t.Fatalf("Replicate(_, 0) gave %d strategies, want 2", len(got))
	}
}

// TestSharedPortfolioAgreesWithExact: a cooperating portfolio of
// replicated lanes, with paranoid verification on, must keep agreeing
// with the exact algorithm — sharing may only move clauses that
// preserve satisfiability.
func TestSharedPortfolioAgreesWithExact(t *testing.T) {
	strategies := Replicate(Must(PaperPortfolio2())[:1], 2)
	rng := rand.New(rand.NewSource(19))
	reg := obs.NewRegistry()
	for trial := 0; trial < 6; trial++ {
		g := graph.Random(rng, 8+rng.Intn(8), 0.4+rng.Float64()*0.4)
		k := 2 + rng.Intn(4)
		_, want, _ := coloring.KColorable(g, k, 0)

		winner, _, err := Run(context.Background(), g, k, strategies, Options{
			Metrics: reg,
			Seed:    int64(trial + 1),
			Share:   &share.Options{},
			Solver:  sat.Options{RestartBase: 2},
			Verify:  true,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if (winner.Status == sat.Sat) != want {
			t.Fatalf("trial %d: shared portfolio says %v, exact says sat=%v", trial, winner.Status, want)
		}
		if want {
			if err := coloring.Verify(g, winner.Colors, k); err != nil {
				t.Fatalf("trial %d: winner coloring invalid: %v", trial, err)
			}
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricShareExported] == 0 {
		t.Fatalf("no clauses exported across 6 tight trials; sharing never engaged: %+v", snap.Counters)
	}
}

// TestShareExportPanicIsolated: a lane that panics at the clause-export
// boundary (mid-restart, via the share.export failpoint) must be
// isolated like any other lane crash — the peer still answers, and the
// crashed lane surfaces a *robust.PanicError.
func TestShareExportPanicIsolated(t *testing.T) {
	strategies := Replicate(Must(PaperPortfolio2())[:1], 2)
	// Crash whichever lane reaches an export boundary first — an Unsat
	// answer on K7/6 needs many restarts, so the eventual winner is
	// guaranteed to pass through here, while the loser may be cancelled
	// before its first restart.
	crashed := int32(-1)
	var crashedLane atomic.Int32
	crashedLane.Store(crashed)
	robust.SetFailpoint(robust.FPShareExport, func(args ...any) {
		id := int32(args[0].(int))
		if crashedLane.CompareAndSwap(-1, id) || crashedLane.Load() == id {
			panic("injected export crash")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPShareExport) })

	reg := obs.NewRegistry()
	winner, all, err := Run(context.Background(), graph.Complete(7), 6, strategies, Options{
		Metrics: reg,
		Seed:    3,
		Share:   &share.Options{},
		Solver:  sat.Options{RestartBase: 1},
	})
	if err != nil {
		t.Fatalf("portfolio failed despite a healthy peer: %v", err)
	}
	if winner.Status != sat.Unsat {
		t.Fatalf("K7 with 6 tracks: %v, want Unsat", winner.Status)
	}
	id := crashedLane.Load()
	if id < 0 {
		t.Fatal("no lane ever reached the export boundary")
	}
	if _, ok := robust.AsPanic(all[id].Err); !ok {
		t.Fatalf("exporting lane %d's Result.Err = %v, want *robust.PanicError", id, all[id].Err)
	}
	if n := reg.Snapshot().Counters[MetricPanics]; n < 1 {
		t.Fatalf("portfolio.panics = %d, want >= 1", n)
	}
}

// TestShareCorruptionCaughtByVerify: the share.import failpoint rewrites
// every foreign clause into alternating contradictory units, so any lane
// importing two of them is silently refuted and claims Unsat on a
// routable instance. Paranoid mode (-verify) must catch the lie with a
// SoundnessError; the run must never return a wrong answer quietly.
func TestShareCorruptionCaughtByVerify(t *testing.T) {
	strategies := Replicate(Must(PaperPortfolio2())[:1], 2)

	var mu sync.Mutex
	flips := map[int]int{}
	robust.SetFailpoint(robust.FPShareImport, func(args ...any) {
		lane := args[0].(int)
		lits := args[1].(*[]sat.Lit)
		mu.Lock()
		n := flips[lane]
		flips[lane]++
		mu.Unlock()
		d := 1
		if n%2 == 1 {
			d = -1
		}
		*lits = []sat.Lit{sat.LitFromDimacs(d)}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPShareImport) })

	rng := rand.New(rand.NewSource(29))
	caught := 0
	for trial := 0; trial < 8; trial++ {
		g := graph.Random(rng, 10+rng.Intn(6), 0.5)
		// Tightest routable track count: satisfiable, but only after a
		// real search with conflicts, restarts and therefore imports.
		k := 1
		for {
			if _, ok, _ := coloring.KColorable(g, k, 0); ok {
				break
			}
			k++
		}
		// Deterministic lockstep forces imports to actually happen: each
		// lane consumes its peers' round-r exports before starting round
		// r+1, instead of racing tiny instances to the finish line.
		winner, _, err := Run(context.Background(), g, k, strategies, Options{
			Seed:   int64(trial + 1),
			Share:  &share.Options{Deterministic: true},
			Solver: sat.Options{RestartBase: 1},
			Verify: true,
		})
		if err != nil {
			if _, ok := robust.AsSoundness(err); !ok {
				t.Fatalf("trial %d: non-soundness failure: %v", trial, err)
			}
			caught++
			continue
		}
		// No corruption landed in time — then the answer must be right.
		if winner.Status != sat.Sat {
			t.Fatalf("trial %d: routable instance answered %v without a soundness error", trial, winner.Status)
		}
		if err := coloring.Verify(g, winner.Colors, k); err != nil {
			t.Fatalf("trial %d: silently wrong coloring: %v", trial, err)
		}
	}
	if caught == 0 {
		t.Fatal("corrupted imports never caught across 8 tight trials; -verify protection not exercised")
	}
}

// TestDeterministicPortfolioReplay: the deterministic exchange mode must
// compose with the full hardened runner — two seeded runs on the same
// unroutable instance both answer Unsat with no error and with sharing
// engaged (lane scheduling may still vary, but lockstep rounds must not
// deadlock under cancellation).
func TestDeterministicPortfolioReplay(t *testing.T) {
	strategies := Replicate(Must(PaperPortfolio2())[:1], 3)
	for run := 0; run < 2; run++ {
		reg := obs.NewRegistry()
		winner, _, err := Run(context.Background(), graph.Complete(7), 6, strategies, Options{
			Metrics: reg,
			Seed:    5,
			Share:   &share.Options{Deterministic: true},
			Solver:  sat.Options{RestartBase: 1},
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if winner.Status != sat.Unsat {
			t.Fatalf("run %d: K7 with 6 tracks answered %v", run, winner.Status)
		}
		if n := reg.Snapshot().Counters[MetricShareExported]; n == 0 {
			t.Fatalf("run %d: deterministic exchange never exported", run)
		}
	}
}
