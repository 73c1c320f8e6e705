package mcnc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// pinnedSearch is what one solve of a real workload did: the solver's
// conflict, propagation and decision counts and the SHA-256 of its DRAT
// log.
type pinnedSearch struct {
	conflicts, propagations, decisions int64
	drat                               string
}

// pinnedSearches maps "<instance> W=<w> <strategy>" to the search a
// default-option solver makes there. The "1x" key is a whole width
// search, whose counts and proof log span both of its probes.
var pinnedSearches = map[string]pinnedSearch{
	"too_large W=6 ITE-linear-2+muldirect/s1": {1628, 37410, 14578, "4012687cf88510c511401e4822eed1d1ba42222881e0315ab08cf6e89544d326"},
	"too_large W=6 ITE-log/s1":                {8547, 155873, 56146, "32ecc34ac3cd83f92f10eee99e2735e39be8c28d48305179be69be8b930f420a"},
	"alu2 W=6 ITE-linear-2+muldirect/s1":      {5175, 101978, 18519, "61cefeaed7b6a2d7c58f048241cc4303a9c21ec4eee3c945179d93efa67912e0"},
	"alu2 W=6 ITE-log/s1":                     {4857, 83649, 32460, "7a3efe13c7c619198c059c119820e73c1477b523a72262b140481c7c8e14294b"},
	"1x W=[9,10] direct/s1 search":            {13, 23802, 7575, "5f0f879cae612282547f0a0372cc2bac61a6f9abd651ca5862758b4ee65bd6a1"},
}

// TestSolverSearchesPinned holds the solver to the exact searches of the
// real workloads, where the clause-stream digests hold only the formulas:
// too_large and alu2 refuted at W-1 through core.Strategy.Solve under the
// refute-table2 strategies, and the search.MinWidth run of the 1x scaled
// fabric under direct/s1 over [CliqueLB+1, CliqueLB+2]. Any change to
// propagation order, branching, learning or clause deletion moves a count
// or the proof log. A change to how the solver stores its clauses must
// leave all of them alone. The solves share one pool, as the workloads'
// do, so later ones may run on a reused solver.
func TestSolverSearchesPinned(t *testing.T) {
	check := func(key string, st sat.Stats, drat string) {
		t.Helper()
		got := pinnedSearch{st.Conflicts, st.Propagations, st.Decisions, drat}
		want, ok := pinnedSearches[key]
		switch {
		case !ok:
			t.Errorf("%q: {%d, %d, %d, %q}, // not pinned", key, got.conflicts, got.propagations, got.decisions, got.drat)
		case got != want:
			t.Errorf("%s: searched %+v, pinned %+v", key, got, want)
		}
	}
	ctx := context.Background()
	var pool sat.Pool
	for _, name := range []string{"too_large", "alu2"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		w := in.UnroutableW()
		for _, spec := range []string{"ITE-linear-2+muldirect/s1", "ITE-log/s1"} {
			s, err := core.ParseStrategy(spec)
			if err != nil {
				t.Fatal(err)
			}
			proof := sha256.New()
			res, err := s.Solve(ctx, g, w, &pool, sat.Options{ProofWriter: proof})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != sat.Unsat {
				t.Fatalf("%s W=%d %s: %v, want Unsat", name, w, spec, res.Status)
			}
			check(fmt.Sprintf("%s W=%d %s", name, w, spec), res.Stats, hex.EncodeToString(proof.Sum(nil)))
		}
	}

	s, err := core.ParseStrategy("direct/s1")
	if err != nil {
		t.Fatal(err)
	}
	g, stats, err := fpga.GenerateScaled(fpga.ScaledFabric(1))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := stats.CliqueLB+1, stats.CliqueLB+2
	proof := sha256.New()
	res, err := search.MinWidth(ctx, g, search.Options{
		Strategy: s, Lo: lo, Hi: hi,
		Solver: sat.Options{ProofWriter: proof},
		Pool:   &pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinWidth != lo || !res.ProvedOptimal {
		t.Fatalf("1x: MinWidth=%d ProvedOptimal=%v, want %d/true", res.MinWidth, res.ProvedOptimal, lo)
	}
	check(fmt.Sprintf("1x W=[%d,%d] direct/s1 search", lo, hi), res.Stats, hex.EncodeToString(proof.Sum(nil)))
}
