package sat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// solveWithProof solves the formula with proof logging and returns the
// status and the proof text.
func solveWithProof(t *testing.T, cnf *CNF) (Status, *bytes.Buffer) {
	t.Helper()
	var proof bytes.Buffer
	s := New(Options{ProofWriter: &proof})
	s.Load(cnf)
	st := s.Solve(context.Background())
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	return st, &proof
}

func TestDRATPigeonhole(t *testing.T) {
	for holes := 2; holes <= 5; holes++ {
		cnf := php(holes+1, holes)
		st, proof := solveWithProof(t, cnf)
		if st != Unsat {
			t.Fatalf("PHP(%d,%d): %v", holes+1, holes, st)
		}
		if err := CheckDRAT(cnf, proof); err != nil {
			t.Fatalf("PHP(%d,%d) proof rejected: %v", holes+1, holes, err)
		}
	}
}

func TestDRATTrivialUnsat(t *testing.T) {
	cnf := &CNF{}
	cnf.AddClause(1)
	cnf.AddClause(-1)
	st, proof := solveWithProof(t, cnf)
	if st != Unsat {
		t.Fatalf("%v", st)
	}
	if err := CheckDRAT(cnf, proof); err != nil {
		t.Fatalf("trivial proof rejected: %v", err)
	}
}

func TestDRATRandomUnsat(t *testing.T) {
	for _, k := range []int{3, mixed23} {
		rng := rand.New(rand.NewSource(2024))
		checked := 0
		for trial := 0; trial < 60 && checked < 12; trial++ {
			vars := 5 + rng.Intn(6)
			cnf := randomCNF(rng, vars, vars*6, k)
			st, proof := solveWithProof(t, cnf)
			if st != Unsat {
				continue
			}
			if err := CheckDRAT(cnf, proof); err != nil {
				t.Fatalf("k=%d trial %d: proof rejected: %v", k, trial, err)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("k=%d: no unsat instances generated", k)
		}
	}
}

func TestDRATWithReduceDB(t *testing.T) {
	// PHP(8,7) generates enough conflicts to trigger learnt-clause
	// deletion, exercising the "d" lines.
	cnf := php(8, 7)
	var proof bytes.Buffer
	s := New(Options{ProofWriter: &proof, LearntLimit: 60})
	s.Load(cnf)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("%v", st)
	}
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Removed == 0 {
		t.Fatal("reduceDB did not fire despite LearntLimit")
	}
	if !strings.Contains(proof.String(), "\nd ") {
		t.Fatal("no deletion lines in proof despite reduceDB")
	}
	if err := CheckDRAT(cnf, &proof); err != nil {
		t.Fatalf("proof with deletions rejected: %v", err)
	}
}

// TestRUPAllocationFree: once a checker is loaded, checking a lemma
// allocates nothing, whether it is RUP or not. The assignments live in
// one per-checker array that a trail of the literals set clears.
func TestRUPAllocationFree(t *testing.T) {
	cnf := &CNF{}
	cnf.AddClause(1, 2)
	cnf.AddClause(-2, 3)
	cnf.AddClause(-3, 4, 5)
	cnf.AddClause(-5)
	c := newChecker(cnf)
	rup, notRUP := []int{1, 4}, []int{1}
	allocs := testing.AllocsPerRun(100, func() {
		if !c.rup(rup) || c.rup(notRUP) {
			t.Fatal("(1 ∨ 4) must be RUP and (1) must not")
		}
	})
	if allocs != 0 {
		t.Errorf("checking two lemmas: %v allocations, want 0", allocs)
	}
}

func TestDRATRejectsBogusProofs(t *testing.T) {
	cnf := &CNF{}
	cnf.AddClause(1, 2)
	cnf.AddClause(-1, 2)
	cnf.AddClause(1, -2)
	cnf.AddClause(-1, -2)
	cases := map[string]string{
		"non-RUP lemma":   "3 0\n0\n",
		"no empty clause": "2 0\n1 0\n",
		"bad literal":     "x 0\n",
		"missing zero":    "1 2\n",
	}
	for name, proof := range cases {
		if err := CheckDRAT(cnf, strings.NewReader(proof)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The genuine refutation is accepted: 2, then 1... unit propagation
	// of ¬2 hits (1 2),( -1 2) -> conflict, so "2" is RUP; then the
	// empty clause is RUP.
	if err := CheckDRAT(cnf, strings.NewReader("2 0\n0\n")); err != nil {
		t.Errorf("hand-written refutation rejected: %v", err)
	}
}

// TestDRATDeletionMatchesMultiset checks how a "d" line finds its
// clause: by the multiset of its literals, in any order, removing one
// copy, and tolerating a clause that is not there. The lemma 3 is RUP
// only while (1 3) is in the formula.
func TestDRATDeletionMatchesMultiset(t *testing.T) {
	cases := []struct {
		name  string
		dup   bool // the formula holds (1 3) twice
		proof string
		ok    bool
	}{
		{"no deletion", false, "3 0\n0\n", true},
		{"deleted with literals reordered", false, "d 3 1 0\n3 0\n0\n", false},
		{"repeated literal removes nothing", false, "d 1 1 3 0\n3 0\n0\n", true},
		{"missing clause tolerated", false, "d 2 3 0\n3 0\n0\n", true},
		{"one copy of two removed", true, "d 1 3 0\n3 0\n0\n", true},
		{"both copies removed", true, "d 1 3 0\nd 3 1 0\n3 0\n0\n", false},
	}
	for _, tc := range cases {
		cnf := &CNF{}
		cnf.AddClause(1, 3)
		if tc.dup {
			cnf.AddClause(1, 3)
		}
		cnf.AddClause(-1, 3)
		cnf.AddClause(1, -3)
		cnf.AddClause(-1, -3)
		err := CheckDRAT(cnf, strings.NewReader(tc.proof))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "is not RUP")):
			t.Errorf("%s: got %v, want the lemma rejected as not RUP", tc.name, err)
		}
	}
}

func TestDRATSatFormulaProofIncomplete(t *testing.T) {
	cnf := &CNF{}
	cnf.AddClause(1, 2)
	st, proof := solveWithProof(t, cnf)
	if st != Sat {
		t.Fatalf("%v", st)
	}
	if err := CheckDRAT(cnf, proof); err == nil {
		t.Fatal("proof for satisfiable formula accepted as refutation")
	}
}

func TestDRATGraphColoringCertificate(t *testing.T) {
	// End-to-end: K5 with 4 colors (direct encoding) is unroutable-
	// style unsat; the certificate must check.
	cnf := &CNF{}
	v := func(node, color int) int { return node*4 + color + 1 }
	for n := 0; n < 5; n++ {
		cnf.AddClause(v(n, 0), v(n, 1), v(n, 2), v(n, 3))
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for c := 0; c < 4; c++ {
				cnf.AddClause(-v(a, c), -v(b, c))
			}
		}
	}
	st, proof := solveWithProof(t, cnf)
	if st != Unsat {
		t.Fatalf("%v", st)
	}
	if proof.Len() == 0 {
		t.Fatal("empty proof")
	}
	if err := CheckDRAT(cnf, proof); err != nil {
		t.Fatalf("coloring certificate rejected: %v", err)
	}
}

// TestDRATLoadTimeUnsatProofCloses: a formula refuted while loading
// (conflicting unit clauses, zero search conflicts) must still produce
// a checkable proof — solveCNFOn used to return Unsat before Solve
// could log the closing empty clause, leaving an empty proof that
// CheckDRAT rejects.
func TestDRATLoadTimeUnsatProofCloses(t *testing.T) {
	cases := map[string]*CNF{
		"conflicting units": func() *CNF {
			c := &CNF{}
			c.AddClause(1)
			c.AddClause(-1)
			return c
		}(),
		"unit chain": func() *CNF {
			c := &CNF{}
			c.AddClause(1)
			c.AddClause(-1, 2)
			c.AddClause(-2)
			return c
		}(),
	}
	for name, cnf := range cases {
		var proof bytes.Buffer
		r := SolveCNFContext(context.Background(), cnf, Options{ProofWriter: &proof})
		if r.Status != Unsat {
			t.Fatalf("%s: status %v", name, r.Status)
		}
		if err := CheckDRAT(cnf, bytes.NewReader(proof.Bytes())); err != nil {
			t.Fatalf("%s: load-time-unsat proof rejected: %v", name, err)
		}
	}
}

func TestDRATTruncatedByBudget(t *testing.T) {
	// A budget-interrupted solve leaves a truncated proof; the checker
	// must reject it (no empty clause) without crashing.
	var proof bytes.Buffer
	cnf := php(10, 9)
	s := New(Options{ProofWriter: &proof, ConflictBudget: 50})
	s.Load(cnf)
	if st := s.Solve(context.Background()); st != Unknown {
		t.Skipf("instance solved within budget: %v", st)
	}
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	if err := CheckDRAT(cnf, &proof); err == nil {
		t.Fatal("truncated proof accepted as refutation")
	}
}

// failWriter errors after n bytes, exercising proof I/O error paths.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = fmt.Errorf("simulated write failure")

func TestProofWriterFailureSurfaces(t *testing.T) {
	s := New(Options{ProofWriter: &failWriter{left: 8}})
	s.Load(php(6, 5))
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("%v", st)
	}
	if err := s.ProofError(); err == nil {
		t.Fatal("write failure not surfaced by ProofError")
	}
}
