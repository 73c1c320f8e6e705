package core

import (
	"context"
	"math/rand"
	"testing"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

// allTestEncodings returns the 14 paper encodings plus extra
// framework-only ones (deeper hierarchies, arbitrary trees) exercised
// by tests.
func allTestEncodings(t *testing.T) []Encoding {
	t.Helper()
	encs := PaperEncodings()
	extra := []Encoding{
		MustHierarchical([]Level{{KindLog, 1}}, KindDirect),
		MustHierarchical([]Level{{KindLog, 2}}, KindMuldirect),
		MustHierarchical([]Level{{KindITELog, 1}, {KindITELinear, 1}}, KindITELinear),
		MustHierarchical([]Level{{KindMuldirect, 2}, {KindMuldirect, 2}}, KindMuldirect),
		MustHierarchical([]Level{{KindDirect, 2}, {KindDirect, 2}}, KindDirect),
		MustHierarchical([]Level{{KindITELinear, 3}}, KindLog),
		NewITETree("tree-balanced", BalancedShape),
		NewITETree("tree-random", RandomShape(rand.New(rand.NewSource(17)))),
	}
	return append(encs, extra...)
}

// solveEncoded solves a hand-built CSP's buffered formula on a fresh
// solver, decoding and verifying a Sat model.
func solveEncoded(e *Encoded) (sat.Status, []int, error) {
	res := sat.SolveCNFContext(context.Background(), e.CNF, sat.Options{})
	if res.Status != sat.Sat {
		return res.Status, nil, nil
	}
	colors, err := e.DecodeVerify(res.Model)
	return res.Status, colors, err
}

// TestEncodingsAgreeWithExactColoring is the central correctness
// property of the package: for every encoding, on random graphs and
// color counts, SAT-solving the encoded CSP must agree with the exact
// branch-and-bound k-colorability answer, and decoded models must be
// proper colorings.
func TestEncodingsAgreeWithExactColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	encs := allTestEncodings(t)
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(10)
		g := graph.Random(rng, n, 0.3+rng.Float64()*0.5)
		k := 1 + rng.Intn(5)
		_, want, done := coloring.KColorable(g, k, 0)
		if !done {
			t.Fatal("exact search exhausted")
		}
		for _, enc := range encs {
			csp := NewCSP(g, k)
			e := Encode(csp, enc)
			if err := e.CNF.Validate(); err != nil {
				t.Fatalf("%s: invalid CNF: %v", enc.Name(), err)
			}
			st, colors, err := solveEncoded(e)
			if err != nil {
				t.Fatalf("%s trial %d: %v", enc.Name(), trial, err)
			}
			if (st == sat.Sat) != want {
				t.Fatalf("%s trial %d (n=%d m=%d k=%d): SAT=%v, exact=%v",
					enc.Name(), trial, n, g.M(), k, st == sat.Sat, want)
			}
			if st == sat.Sat {
				if err := coloring.Verify(g, colors, k); err != nil {
					t.Fatalf("%s: decoded coloring invalid: %v", enc.Name(), err)
				}
			}
		}
	}
}

// TestSymmetryPreservesSatisfiability checks Van Gelder's soundness
// property: restricting the i-th sequence vertex to colors < i never
// changes satisfiability, for both heuristics and all encodings.
func TestSymmetryPreservesSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	encs := []Encoding{
		NewSimple(KindMuldirect),
		NewSimple(KindLog),
		NewSimple(KindITELinear),
		MustHierarchical([]Level{{KindITELinear, 2}}, KindMuldirect),
		MustHierarchical([]Level{{KindDirect, 3}}, KindDirect),
	}
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(8)
		g := graph.Random(rng, n, 0.4+rng.Float64()*0.4)
		k := 2 + rng.Intn(4)
		_, want, _ := coloring.KColorable(g, k, 0)
		for _, h := range []symmetry.Heuristic{symmetry.B1, symmetry.S1, symmetry.C1} {
			for _, enc := range encs {
				res, err := Strategy{enc, h}.Solve(context.Background(), g, k, nil, sat.Options{})
				if err != nil {
					t.Fatalf("%s/%s: %v", enc.Name(), h, err)
				}
				if (res.Status == sat.Sat) != want {
					t.Fatalf("%s/%s trial %d: symmetry changed satisfiability (got %v, want sat=%v)",
						enc.Name(), h, trial, res.Status, want)
				}
				if res.Status == sat.Sat {
					if err := coloring.Verify(g, res.Colors, k); err != nil {
						t.Fatalf("%s/%s: %v", enc.Name(), h, err)
					}
				}
			}
		}
	}
}

func TestEncodeAdjacentSingletonDomainsUnsat(t *testing.T) {
	// Two adjacent vertices both restricted to color 0: every encoding
	// must produce an unsatisfiable formula (the conflict clause is
	// empty).
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Freeze()
	for _, enc := range allTestEncodings(t) {
		csp := NewCSP(g, 3)
		csp.RestrictDomain(0, 1)
		csp.RestrictDomain(1, 1)
		st, _, err := solveEncoded(Encode(csp, enc))
		if err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
		if st != sat.Unsat {
			t.Errorf("%s: got %v, want Unsat", enc.Name(), st)
		}
	}
}

func TestEncodeTriangleNeedsThreeColors(t *testing.T) {
	tri := graph.Complete(3)
	for _, enc := range allTestEncodings(t) {
		if st, _, _ := solveEncoded(Encode(NewCSP(tri, 2), enc)); st != sat.Unsat {
			t.Errorf("%s: K3 with 2 colors gave %v", enc.Name(), st)
		}
		st, colors, err := solveEncoded(Encode(NewCSP(tri, 3), enc))
		if err != nil || st != sat.Sat {
			t.Errorf("%s: K3 with 3 colors gave %v, %v", enc.Name(), st, err)
			continue
		}
		if err := coloring.Verify(tri, colors, 3); err != nil {
			t.Errorf("%s: %v", enc.Name(), err)
		}
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	g := graph.New(0)
	for _, enc := range PaperEncodings() {
		st, colors, err := solveEncoded(Encode(NewCSP(g, 4), enc))
		if err != nil || st != sat.Sat || len(colors) != 0 {
			t.Errorf("%s: empty graph gave %v %v %v", enc.Name(), st, colors, err)
		}
	}
}

func TestEncodeIsolatedVertices(t *testing.T) {
	g := graph.New(5)
	for _, enc := range PaperEncodings() {
		st, colors, err := solveEncoded(Encode(NewCSP(g, 2), enc))
		if err != nil || st != sat.Sat {
			t.Fatalf("%s: %v %v", enc.Name(), st, err)
		}
		if len(colors) != 5 {
			t.Fatalf("%s: %d colors", enc.Name(), len(colors))
		}
	}
}

func TestEncodedClauseCensus(t *testing.T) {
	g := graph.Complete(3)
	e := Encode(NewCSP(g, 3), NewSimple(KindDirect))
	// direct: per vertex 1 ALO + 3 AMO = 4 structural; 3 edges × 3
	// colors = 9 conflicts.
	if e.StructuralClauses != 12 || e.ConflictClauses != 9 {
		t.Fatalf("census = %d structural, %d conflict; want 12, 9",
			e.StructuralClauses, e.ConflictClauses)
	}
	if e.CNF.NumClauses() != 21 {
		t.Fatalf("total clauses = %d, want 21", e.CNF.NumClauses())
	}
}

func TestDecodeRejectsBrokenModel(t *testing.T) {
	g := graph.New(1)
	e := Encode(NewCSP(g, 3), NewSimple(KindDirect))
	// All-false model selects no value for the vertex.
	if _, err := e.Decode(make([]bool, e.CNF.NumVars)); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestStrategyName(t *testing.T) {
	s, err := ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "ITE-linear-2+muldirect/s1" {
		t.Fatalf("Name = %q", s.Name())
	}
	s2, err := ParseStrategy("muldirect")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != "muldirect/-" || s2.Symmetry != symmetry.None {
		t.Fatalf("Name = %q", s2.Name())
	}
	if _, err := ParseStrategy("muldirect/zz"); err == nil {
		t.Fatal("bad heuristic accepted")
	}
	if _, err := ParseStrategy("frob/s1"); err == nil {
		t.Fatal("bad encoding accepted")
	}
}

// TestVarCountsPerEncoding pins down the Boolean variable counts per
// CSP variable for a domain of 13 values, documenting the size
// trade-offs between encodings.
func TestVarCountsPerEncoding(t *testing.T) {
	want := map[string]int{
		"log":                    4,
		"direct":                 13,
		"muldirect":              13,
		"ITE-linear":             12,
		"ITE-log":                4,
		"ITE-log-1+ITE-linear":   1 + 6, // 2 groups of 7,6; shared chain needs 6
		"ITE-log-2+ITE-linear":   2 + 3, // 4 groups of 4,3,3,3; shared chain needs 3
		"ITE-linear-2+direct":    2 + 5, // 3 groups of 5,4,4
		"ITE-linear-2+muldirect": 2 + 5,
		"direct-3+direct":        3 + 5,
		"muldirect-3+muldirect":  3 + 5,
	}
	for name, wantVars := range want {
		enc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := newAlloc()
		encodeVar(enc, 13, a)
		if a.count() != wantVars {
			t.Errorf("%s: %d vars for domain 13, want %d", name, a.count(), wantVars)
		}
	}
}

func TestDescribeVariable(t *testing.T) {
	cubes, n, err := DescribeVariable(NewSimple(KindITELinear), 5)
	if err != nil || n != 4 || len(cubes) != 5 {
		t.Fatalf("%v %d %d", err, n, len(cubes))
	}
	if _, _, err := DescribeVariable(NewSimple(KindLog), 0); err == nil {
		t.Fatal("domain 0 accepted")
	}
}

func TestEncodeGraphAddsComments(t *testing.T) {
	g := graph.Cycle(4)
	s, err := ParseStrategy("muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	e := s.EncodeGraph(g, 3)
	found := false
	for _, c := range e.CNF.Comments {
		if c == "symmetry: s1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("comments = %v", e.CNF.Comments)
	}
}

func TestRestrictDomainValidation(t *testing.T) {
	csp := NewCSP(graph.New(2), 3)
	for _, bad := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RestrictDomain(%d) accepted", bad)
				}
			}()
			csp.RestrictDomain(0, bad)
		}()
	}
}

// TestEncodingSizeGoldens pins the exact formula sizes of every paper
// encoding on C5 with 4 colors, catching accidental changes to clause
// generation.
func TestEncodingSizeGoldens(t *testing.T) {
	golden := []struct {
		name                string
		vars, clauses, lits int
	}{
		{"log", 10, 20, 80},
		{"direct", 20, 55, 120},
		{"muldirect", 20, 25, 60},
		{"ITE-linear", 15, 20, 90},
		{"ITE-log", 10, 20, 80},
		{"ITE-log-1+ITE-linear", 10, 20, 80},
		{"ITE-log-2+ITE-linear", 10, 20, 80},
		{"ITE-log-2+direct", 10, 20, 80},
		{"ITE-log-2+muldirect", 10, 20, 80},
		{"ITE-linear-2+direct", 20, 40, 130},
		{"ITE-linear-2+muldirect", 20, 35, 120},
		{"direct-3+direct", 25, 60, 145},
		{"direct-3+muldirect", 25, 55, 135},
		{"muldirect-3+direct", 25, 45, 115},
		{"muldirect-3+muldirect", 25, 40, 105},
	}
	g := graph.Cycle(5)
	for _, want := range golden {
		enc, err := ByName(want.name)
		if err != nil {
			t.Fatal(err)
		}
		e := Encode(NewCSP(g, 4), enc)
		if e.CNF.NumVars != want.vars || e.CNF.NumClauses() != want.clauses ||
			e.CNF.NumLiterals() != want.lits {
			t.Errorf("%s: got (%d,%d,%d), want (%d,%d,%d)", want.name,
				e.CNF.NumVars, e.CNF.NumClauses(), e.CNF.NumLiterals(),
				want.vars, want.clauses, want.lits)
		}
	}
}
