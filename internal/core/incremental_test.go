package core

import (
	"context"
	"math/rand"
	"testing"

	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
)

// TestEncodeIncrementalWidthEquivalence checks the selector-guard
// construction against single-shot encodes: for every width w in the
// encoded range, the incremental CNF with sel_w asserted as a unit has
// the same satisfiability as a fresh encode at width w, and a Sat model
// decodes to a valid width-w coloring.
func TestEncodeIncrementalWidthEquivalence(t *testing.T) {
	specs := []string{
		"log/-",
		"direct/s1",
		"muldirect/c1",
		"ITE-log/b1",
		"ITE-linear/-",
		"ITE-linear-2+muldirect/s1",
		"direct-3+direct/s1",
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 14; round++ {
		n := 4 + rng.Intn(4)
		g := graph.Random(rng, n, 0.3+0.4*rng.Float64())
		strat, err := ParseStrategy(specs[round%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		K := n
		csp := BuildCSP(g, K, strat.Symmetry)
		cnf := &sat.CNF{}
		inc := EncodeIncremental(csp, strat.Encoding, 1, cnf)
		if cnf.NumVars < inc.NumVars {
			cnf.NumVars = inc.NumVars
		}
		for w := 1; w <= K; w++ {
			want := sat.SolveCNFContext(context.Background(),
				Encode(BuildCSP(g, w, strat.Symmetry), strat.Encoding).CNF,
				sat.Options{}).Status
			probe := &sat.CNF{NumVars: cnf.NumVars}
			for i := range cnf.NumClauses() {
				var cl []int
				for _, l := range cnf.Clause(i) {
					cl = append(cl, int(l))
				}
				probe.AddClause(cl...)
			}
			if sel := inc.SelectorVar(w); sel != 0 {
				probe.AddClause(sel)
			}
			res := sat.SolveCNFContext(context.Background(), probe, sat.Options{})
			if res.Status != want {
				t.Fatalf("round %d %s width %d: incremental %v, single-shot %v",
					round, strat.Name(), w, res.Status, want)
			}
			if res.Status == sat.Sat {
				if _, err := inc.DecodeVerifyWidth(res.Model, w); err != nil {
					t.Fatalf("round %d %s width %d: %v", round, strat.Name(), w, err)
				}
			}
		}
	}
}

func TestEncodeIncrementalBookkeeping(t *testing.T) {
	g := graph.Complete(4)
	csp := BuildCSP(g, 5, "s1")
	cnf := &sat.CNF{}
	inc := EncodeIncremental(csp, NewSimple(KindDirect), 2, cnf)

	if got := inc.StructuralClauses + inc.ConflictClauses + inc.GuardClauses; got != cnf.NumClauses() {
		t.Fatalf("census %d, CNF has %d clauses", got, cnf.NumClauses())
	}
	if a, err := inc.Assumptions(5); err != nil || a != nil {
		t.Fatalf("full-width probe needs no assumptions, got %v, %v", a, err)
	}
	for w := 2; w < 5; w++ {
		a, err := inc.Assumptions(w)
		if err != nil || len(a) != 1 {
			t.Fatalf("width %d: assumptions %v, %v", w, a, err)
		}
		if a[0].Dimacs() != inc.SelectorVar(w) {
			t.Fatalf("width %d: assumption %d != selector %d", w, a[0].Dimacs(), inc.SelectorVar(w))
		}
	}
	if _, err := inc.Assumptions(1); err == nil {
		t.Fatal("width below Lo must be rejected")
	}
	if _, err := inc.Assumptions(6); err == nil {
		t.Fatal("width above K must be rejected")
	}
	if inc.SelectorVar(5) != 0 || inc.SelectorVar(1) != 0 {
		t.Fatal("SelectorVar outside (Lo, K) range must be 0")
	}
}

// TestEncodeIncrementalNoSelectors covers the degenerate lo == K range:
// no selectors, no guard clauses, identical to a plain encode.
func TestEncodeIncrementalNoSelectors(t *testing.T) {
	g := graph.Complete(3)
	csp := BuildCSP(g, 3, "")
	cnf := &sat.CNF{}
	inc := EncodeIncremental(csp, NewSimple(KindLog), 3, cnf)
	if inc.GuardClauses != 0 {
		t.Fatalf("expected no guard clauses, got %d", inc.GuardClauses)
	}
	plain := Encode(BuildCSP(graph.Complete(3), 3, ""), NewSimple(KindLog))
	if cnf.NumClauses() != plain.CNF.NumClauses() {
		t.Fatalf("lo==K incremental encode has %d clauses, plain %d",
			cnf.NumClauses(), plain.CNF.NumClauses())
	}
}
