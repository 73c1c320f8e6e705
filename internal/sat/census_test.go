package sat_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
)

// TestCensusSizesListsExactly: on a fresh solver, loading a formula that
// simplification leaves alone gives every implication list a capacity
// equal to its length, through Solver.Load of the buffered formula and
// through the encoder streaming into a SolverSink alike, and the two
// paths give the same capacities. Covers every paper encoding and
// order, single-shot and incremental.
func TestCensusSizesListsExactly(t *testing.T) {
	g := graph.Random(rand.New(rand.NewSource(23)), 30, 0.3)
	csp := core.NewCSP(g, 6)
	entries := 0
	for _, enc := range append(core.PaperEncodings(), core.NewOrder()) {
		for _, incremental := range []bool{false, true} {
			buffered := &sat.CNF{}
			loaded, streamed := sat.New(sat.Options{}), sat.New(sat.Options{})
			if incremental {
				core.EncodeIncremental(csp, enc, 3, buffered)
				core.EncodeIncremental(csp, enc, 3, sat.SolverSink{S: streamed})
			} else {
				core.EncodeInto(csp, enc, buffered)
				core.EncodeInto(csp, enc, sat.SolverSink{S: streamed})
			}
			loaded.Load(buffered)
			name := fmt.Sprintf("%s incremental=%v", enc.Name(), incremental)
			for _, s := range []*sat.Solver{loaded, streamed} {
				if s.Stats.MaxTrail != 0 || s.NumClauses() != buffered.NumClauses() {
					t.Fatalf("%s: loading simplified the formula: %d level-0 units, %d of %d clauses stored",
						name, s.Stats.MaxTrail, s.NumClauses(), buffered.NumClauses())
				}
			}
			lens, caps := sat.ImplicationLists(loaded)
			streamedLens, streamedCaps := sat.ImplicationLists(streamed)
			if !slices.Equal(lens, streamedLens) || !slices.Equal(caps, streamedCaps) {
				t.Fatalf("%s: Load and SolverSink leave different implication lists", name)
			}
			for l := range lens {
				if lens[l] != caps[l] {
					t.Fatalf("%s: literal %d's list holds %d entries in a capacity of %d", name, l, lens[l], caps[l])
				}
				entries += lens[l]
			}
		}
	}
	if entries == 0 {
		t.Fatal("no binary clause: the census was never exercised")
	}
}
