package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

// TestStrategySolveMatchesFormula checks that streaming a strategy's
// encoding into a pooled solver decides exactly what solving the
// buffered formula of EncodeGraph does: the same status after the same
// number of conflicts, over the same variables and clauses, and the
// same DRAT log, which must check against the buffered formula. The
// DIMACS export and every DRAT check read the buffered formula, while
// solves stream, so the two must not drift apart.
func TestStrategySolveMatchesFormula(t *testing.T) {
	type instance struct {
		name       string
		g          *graph.Graph
		k          int
		strategies []Strategy
	}
	var unweighted []Strategy
	for _, enc := range append(PaperEncodings(), NewOrder()) {
		for _, h := range []symmetry.Heuristic{symmetry.None, symmetry.B1, symmetry.S1, symmetry.C1} {
			unweighted = append(unweighted, Strategy{Encoding: enc, Symmetry: h})
		}
	}
	var instances []instance
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		g := graph.Random(rng, 18+rng.Intn(5), 0.5)
		chi, ok := coloring.ChromaticNumber(g, 0)
		if !ok {
			t.Fatal("exact chromatic number search exhausted")
		}
		for _, k := range []int{chi - 1, chi} {
			instances = append(instances, instance{"random", g, k, unweighted})
		}
	}
	// Uniform spacing 2 on K4 needs 7 colors.
	var weighted []Strategy
	for _, name := range BandwidthEncodingNames {
		weighted = append(weighted, Strategy{Encoding: mustByName(t, name)})
	}
	k4 := weightedTestGraphs()["k4-d2"]
	for _, k := range []int{6, 7} {
		instances = append(instances, instance{"k4-d2", k4, k, weighted})
	}

	ctx := context.Background()
	var pool sat.Pool
	var unsat int
	for _, in := range instances {
		for _, s := range in.strategies {
			e := s.EncodeGraph(in.g, in.k)
			var wantProof, gotProof bytes.Buffer
			want := sat.SolveCNFContext(ctx, e.CNF, sat.Options{ProofWriter: &wantProof})

			got, err := s.Solve(ctx, in.g, in.k, &pool, sat.Options{ProofWriter: &gotProof})

			name := in.name + "/" + s.Name()
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, in.k, err)
			}
			if got.Status != want.Status || got.Stats.Conflicts != want.Stats.Conflicts {
				t.Fatalf("%s k=%d: streamed %v after %d conflicts, formula %v after %d",
					name, in.k, got.Status, got.Stats.Conflicts, want.Status, want.Stats.Conflicts)
			}
			if got.Vars != e.CNF.NumVars || got.Clauses != e.CNF.NumClauses() {
				t.Fatalf("%s k=%d: streamed %d vars %d clauses, formula %d vars %d clauses",
					name, in.k, got.Vars, got.Clauses, e.CNF.NumVars, e.CNF.NumClauses())
			}
			if !bytes.Equal(gotProof.Bytes(), wantProof.Bytes()) {
				t.Fatalf("%s k=%d: streamed DRAT log (%d bytes) differs from the formula's (%d bytes)",
					name, in.k, gotProof.Len(), wantProof.Len())
			}
			if got.Status == sat.Unsat {
				unsat++
				if err := sat.CheckDRAT(e.CNF, &gotProof); err != nil {
					t.Fatalf("%s k=%d: streamed DRAT log rejected: %v", name, in.k, err)
				}
			}
		}
	}
	if unsat == 0 {
		t.Fatal("no Unsat case: the DRAT comparison never ran")
	}
}
