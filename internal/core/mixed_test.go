package core

import (
	"math/rand"
	"testing"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
)

func mixedTestEncodings() []Encoding {
	return []Encoding{
		MustMixed("mixed/itelog2(direct,muldirect)", Level{KindITELog, 2},
			[]Encoding{NewSimple(KindDirect), NewSimple(KindMuldirect)}),
		MustMixed("mixed/muldirect3(linear,log)", Level{KindMuldirect, 3},
			[]Encoding{NewSimple(KindITELinear), NewSimple(KindLog)}),
		MustMixed("mixed/direct2(hier,itelog)", Level{KindDirect, 2},
			[]Encoding{
				MustHierarchical([]Level{{KindITELinear, 2}}, KindMuldirect),
				NewSimple(KindITELog),
			}),
		MustMixed("mixed/log2(tree)", Level{KindLog, 2},
			[]Encoding{NewITETree("bal", BalancedShape)}),
	}
}

func TestNewMixedValidation(t *testing.T) {
	if _, err := NewMixed("x", Level{KindDirect, 0}, []Encoding{NewSimple(KindLog)}); err == nil {
		t.Fatal("zero-variable top accepted")
	}
	if _, err := NewMixed("x", Level{KindDirect, 2}, nil); err == nil {
		t.Fatal("empty sub list accepted")
	}
	e := MustMixed("myname", Level{KindDirect, 2}, []Encoding{NewSimple(KindLog)})
	if e.Name() != "myname" {
		t.Fatalf("Name = %q", e.Name())
	}
}

func TestMixedMultivalued(t *testing.T) {
	mv := MustMixed("a", Level{KindMuldirect, 2}, []Encoding{NewSimple(KindDirect)})
	if !mv.Multivalued() {
		t.Error("muldirect top should be multivalued")
	}
	mv2 := MustMixed("b", Level{KindDirect, 2}, []Encoding{NewSimple(KindMuldirect)})
	if !mv2.Multivalued() {
		t.Error("muldirect sub should be multivalued")
	}
	sv := MustMixed("c", Level{KindITELog, 2}, []Encoding{NewSimple(KindITELinear)})
	if sv.Multivalued() {
		t.Error("pure ITE mixed should be single-valued")
	}
}

// TestMixedSemantics runs the exhaustive existence/soundness check on
// the mixed encodings.
func TestMixedSemantics(t *testing.T) {
	for _, enc := range mixedTestEncodings() {
		for d := 1; d <= 9; d++ {
			a := newAlloc()
			cubes, clauses := encodeVar(enc, d, a)
			n := a.count()
			if n > 15 {
				continue
			}
			if len(cubes) != d {
				t.Fatalf("%s d=%d: %d cubes", enc.Name(), d, len(cubes))
			}
			selectable := make([]bool, d)
			forAllAssignments(n, func(model []bool) {
				if !clausesSatisfied(clauses, model) {
					return
				}
				count := 0
				for c, cube := range cubes {
					if cube.Eval(model) {
						count++
						selectable[c] = true
					}
				}
				if count == 0 {
					t.Fatalf("%s d=%d: valid assignment selects nothing", enc.Name(), d)
				}
				if count > 1 && !enc.Multivalued() {
					t.Fatalf("%s d=%d: single-valued encoding selected %d", enc.Name(), d, count)
				}
			})
			for c, ok := range selectable {
				if !ok {
					t.Fatalf("%s d=%d: value %d never selectable", enc.Name(), d, c)
				}
			}
		}
	}
}

// TestMixedAgreesWithExactColoring: end-to-end equisatisfiability for
// mixed encodings on random graphs.
func TestMixedAgreesWithExactColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 8; trial++ {
		g := graph.Random(rng, 4+rng.Intn(8), 0.4+rng.Float64()*0.4)
		k := 2 + rng.Intn(4)
		_, want, _ := coloring.KColorable(g, k, 0)
		for _, enc := range mixedTestEncodings() {
			st, colors, err := solveEncoded(Encode(NewCSP(g, k), enc))
			if err != nil {
				t.Fatalf("%s: %v", enc.Name(), err)
			}
			if (st == sat.Sat) != want {
				t.Fatalf("%s trial %d: got %v, exact sat=%v", enc.Name(), trial, st, want)
			}
			if st == sat.Sat {
				if err := coloring.Verify(g, colors, k); err != nil {
					t.Fatalf("%s: %v", enc.Name(), err)
				}
			}
		}
	}
}
