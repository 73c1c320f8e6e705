package sat

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

func TestDIMACSRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		orig := randomCNF(rng, 5+rng.Intn(20), 1+rng.Intn(40), 2+rng.Intn(3))
		orig.Comments = []string{"generated by test", "trial"}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.NumVars != orig.NumVars || got.NumClauses() != orig.NumClauses() {
			t.Fatalf("trial %d: header mismatch %d/%d vs %d/%d", trial,
				got.NumVars, got.NumClauses(), orig.NumVars, orig.NumClauses())
		}
		for i := range orig.NumClauses() {
			if len(orig.Clause(i)) != len(got.Clause(i)) {
				t.Fatalf("clause %d length mismatch", i)
			}
			for j := range orig.Clause(i) {
				if orig.Clause(i)[j] != got.Clause(i)[j] {
					t.Fatalf("clause %d literal %d mismatch", i, j)
				}
			}
		}
		if len(got.Comments) != 2 {
			t.Fatalf("comments lost: %v", got.Comments)
		}
	}
}

// TestParseDIMACSAllocsDoNotScale: the parser appends literals straight
// into the formula's slab, so ten times the clauses may cost only a
// handful more allocations plus the slab's growth: each of its two
// slices grows by at least 1.25x per reallocation, so at most
// ceil(log_1.25 10) = 11 more reallocations of each.
func TestParseDIMACSAllocsDoNotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var allocs [2]float64
	for i, clauses := range []int{10000, 100000} {
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, randomCNF(rng, 5000, clauses, mixed23)); err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(1, func() {
			cnf, err := ParseDIMACS(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if cnf.NumClauses() != clauses {
				t.Fatalf("parsed %d clauses of %d", cnf.NumClauses(), clauses)
			}
		})
	}
	t.Logf("ParseDIMACS: %.0f allocations at 10,000 clauses, %.0f at 100,000", allocs[0], allocs[1])
	if allocs[1] > allocs[0]+8+2*11 {
		t.Errorf("ParseDIMACS makes %.0f allocations at 100,000 clauses against %.0f at 10,000", allocs[1], allocs[0])
	}
}

func TestParseDIMACSFeatures(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2
3 0
c mid comment
-1 2 -3 0
`
	cnf, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cnf.NumVars != 3 || cnf.NumClauses() != 2 {
		t.Fatalf("got %d vars %d clauses", cnf.NumVars, cnf.NumClauses())
	}
	// First clause spans two lines: 1 -2 3.
	if len(cnf.Clause(0)) != 3 || cnf.Clause(0)[2] != 3 {
		t.Fatalf("multiline clause parsed wrong: %v", cnf.Clause(0))
	}
}

func TestParseDIMACSMissingFinalZero(t *testing.T) {
	cnf, err := ParseDIMACS(strings.NewReader("p cnf 2 1\n1 2"))
	if err != nil {
		t.Fatal(err)
	}
	if cnf.NumClauses() != 1 || len(cnf.Clause(0)) != 2 {
		t.Fatalf("got %d clauses, %d literals", cnf.NumClauses(), cnf.NumLiterals())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"1 2 0",                  // clause before header
		"p cnf x y\n",            // malformed header
		"p sat 3 2\n",            // wrong format token
		"p cnf 2 1\np cnf 2 1\n", // duplicate header
		"p cnf 2 2\n1 0\n",       // fewer clauses than declared
		"p cnf 2 1\n1 two 0\n",   // non-integer literal
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestParseDIMACSVariableLimit feeds the parser a literal and a header
// variable count beyond maxVars, the most variables a solver can create.
// Solving either formula would panic with "sat: variable limit
// exceeded", so the parse must fail instead, naming the line; the
// largest variable within the limit still parses.
func TestParseDIMACSVariableLimit(t *testing.T) {
	for in, line := range map[string]string{
		"p cnf 1 1\n1073741824 0\n":        "line 2",
		"p cnf 1 1\n1 -1073741824 0\n":     "line 2",
		"p cnf 2000000000 1\n1 0\n":        "line 1",
		"c big\np cnf 1073741824 1\n1 0\n": "line 2",
	} {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("input %q: error %v, want one at %s", in, err, line)
		}
	}
	cnf, err := ParseDIMACS(strings.NewReader("p cnf 1 1\n-1073741823 0\n"))
	if err != nil {
		t.Fatalf("largest variable: %v", err)
	}
	if cnf.NumVars != maxVars {
		t.Fatalf("largest variable: NumVars %d, want %d", cnf.NumVars, maxVars)
	}
}

func TestParseDIMACSGrowsVars(t *testing.T) {
	cnf, err := ParseDIMACS(strings.NewReader("p cnf 1 1\n5 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cnf.NumVars != 5 {
		t.Fatalf("NumVars = %d, want 5", cnf.NumVars)
	}
}

func TestSolveParsedFormula(t *testing.T) {
	in := "p cnf 3 4\n1 2 0\n-1 2 0\n-2 3 0\n-2 -3 0\n"
	cnf, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res := SolveCNFContext(context.Background(), cnf, Options{})
	if res.Status != Unsat {
		t.Fatalf("got %v, want Unsat", res.Status)
	}
}
