package sat

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// FuzzParseDimacs checks that ParseDIMACS never panics, that every
// formula it accepts is structurally valid and within the solver's
// variable limit, and that accepted formulas survive a
// WriteDIMACS/ParseDIMACS round trip unchanged, clause by clause.
func FuzzParseDimacs(f *testing.F) {
	seeds := []string{
		"p cnf 2 1\n1 2 0\n",
		"p cnf 2 1\n1 2", // missing final terminator is tolerated
		"c conflict graph of instance alu2\np cnf 3 2\n1 -2 0\n-1\n3 0\n",
		"p cnf 0 0\n",
		"p cnf 1 1\n0\n",              // empty clause
		"p cnf 2 3\n1 0\n",            // fewer clauses than declared
		"p cnf 1 1\n5 -5 0\n",         // literals beyond the header grow NumVars
		"p cnf x y\n",                 // malformed header
		"1 2 0\n",                     // clause before header
		"p cnf 2 1\np cnf 2 1\n1 0\n", // duplicate header
		"\n\nc only comments\nc and blanks\n",
		"p cnf 1 1\n1073741824 0\n", // literal beyond the variable limit
		"p cnf 2000000000 1\n1 0\n", // header beyond the variable limit
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cnf, err := ParseDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := cnf.Validate(); err != nil {
			t.Fatalf("accepted formula fails Validate: %v\ninput: %q", err, in)
		}
		if cnf.NumVars > maxVars {
			t.Fatalf("accepted formula has %d variables, above the limit %d\ninput: %q", cnf.NumVars, maxVars, in)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, cnf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ParseDIMACS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, buf.String())
		}
		if back.NumVars != cnf.NumVars || back.NumClauses() != cnf.NumClauses() {
			t.Fatalf("round trip changed shape: vars %d->%d, clauses %d->%d",
				cnf.NumVars, back.NumVars, cnf.NumClauses(), back.NumClauses())
		}
		for i := range cnf.NumClauses() {
			cl := cnf.Clause(i)
			if len(back.Clause(i)) != len(cl) {
				t.Fatalf("clause %d: length %d -> %d", i, len(cl), len(back.Clause(i)))
			}
			for j, l := range cl {
				if back.Clause(i)[j] != l {
					t.Fatalf("clause %d literal %d: %d -> %d", i, j, l, back.Clause(i)[j])
				}
			}
		}
	})
}

// FuzzSolveAgainstBrute cross-checks the solver on small formulas that
// mix binary and ternary clauses, the shape of the direct and muldirect
// encodings: a Sat model must satisfy the formula, and an Unsat answer
// must agree with BruteForce and come with a DRAT proof that CheckDRAT
// accepts.
func FuzzSolveAgainstBrute(f *testing.F) {
	// A literal byte is (variable-1)<<1 | sign.
	f.Add([]byte{1, 0, 0, 1, 0, 2, 3})                         // (1 ∨ -1) (2 ∨ -2): tautologies
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})                         // (1 ∨ 1) (-1 ∨ -1): repeated literals, units
	f.Add([]byte{1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3})       // all four binary clauses over two variables
	f.Add([]byte{3, 1, 0, 2, 4, 0, 1, 6, 1, 3, 5, 7, 0, 2, 7}) // (1 ∨ 2 ∨ 3) (-1 ∨ 4) (-2 ∨ -3 ∨ -4) (2 ∨ -4)
	// Twelve variables, binary and ternary clauses.
	f.Add([]byte{11, 0, 1, 3, 0, 5, 7, 1, 9, 11, 13, 0, 2, 4, 1, 6, 8, 10, 0, 12, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		cnf := fuzzCNF(data)
		var proof bytes.Buffer
		res := SolveCNFContext(context.Background(), cnf, Options{ProofWriter: &proof})
		switch res.Status {
		case Sat:
			if !cnf.Eval(res.Model) {
				t.Fatalf("model %v does not satisfy\n%s", res.Model, dimacsText(cnf))
			}
		case Unsat:
			if want, _ := BruteForce(cnf); want != Unsat {
				t.Fatalf("solver says Unsat, brute force %v:\n%s", want, dimacsText(cnf))
			}
			if err := CheckDRAT(cnf, &proof); err != nil {
				t.Fatalf("proof rejected: %v\nformula\n%s", err, dimacsText(cnf))
			}
		default:
			t.Fatalf("no answer (%v) on\n%s", res.Status, dimacsText(cnf))
		}
	})
}

// dimacsText renders the formula in DIMACS, for failure messages.
func dimacsText(c *CNF) string {
	var b strings.Builder
	WriteDIMACS(&b, c)
	return b.String()
}

// fuzzCNF decodes bytes into a formula over 1 to 12 variables, the
// count picked by the first byte. Each clause then takes a length byte,
// whose low bit picks 2 or 3 literals, and one byte per literal: bit 0
// is the sign, the rest the variable. A trailing partial clause is
// dropped.
func fuzzCNF(data []byte) *CNF {
	cnf := &CNF{}
	if len(data) == 0 {
		return cnf
	}
	cnf.NumVars = 1 + int(data[0])%12
	for rest := data[1:]; len(rest) > 0; {
		n := 2 + int(rest[0]&1)
		if len(rest) < 1+n {
			break
		}
		cl := make([]int, n)
		for i, b := range rest[1 : 1+n] {
			cl[i] = 1 + int(b>>1)%cnf.NumVars
			if b&1 == 1 {
				cl[i] = -cl[i]
			}
		}
		cnf.AddClause(cl...)
		rest = rest[1+n:]
	}
	return cnf
}
