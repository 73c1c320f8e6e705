package sat

import (
	"bytes"
	"context"
	"slices"
	"testing"
)

// fakeExchange is a scripted ClauseExchange: deliver is invoked at
// every restart boundary with the round number (1-based) and the add
// callback; learnt offers are counted.
type fakeExchange struct {
	offered int
	rounds  int
	deliver func(round int, add func([]Lit, int32) bool)
}

func (f *fakeExchange) Learnt(lits []Lit, lbd int32) { f.offered++ }

func (f *fakeExchange) Restart(add func([]Lit, int32) bool) {
	f.rounds++
	if f.deliver != nil {
		f.deliver(f.rounds, add)
	}
}

func loadPHPInto(s *Solver, pigeons, holes int) {
	c := php(pigeons, holes)
	for i := range c.NumClauses() {
		s.AddDimacsClause(appendClause(nil, c, i)...)
	}
}

// TestExchangeLearntOffersAndRestartRounds pins the hook contract: the
// solver offers every learnt clause and calls Restart once per restart
// boundary.
func TestExchangeLearntOffersAndRestartRounds(t *testing.T) {
	f := &fakeExchange{}
	s := New(Options{RestartBase: 1, Exchange: f})
	loadPHPInto(s, 7, 6)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("PHP(7,6): got %v, want Unsat", st)
	}
	if f.offered == 0 {
		t.Fatal("no learnt clauses offered to the exchange")
	}
	if int64(f.rounds) != s.Stats.Restarts {
		t.Fatalf("Restart called %d times, solver restarted %d times", f.rounds, s.Stats.Restarts)
	}
}

// TestTrustedImportRefutation: without a proof writer the exchange is
// trusted, so importing a unit and then its negation refutes the
// database at the first restart boundary instead of paying for the
// full refutation.
func TestTrustedImportRefutation(t *testing.T) {
	f := &fakeExchange{}
	f.deliver = func(round int, add func([]Lit, int32) bool) {
		if round != 1 {
			return
		}
		if !add([]Lit{LitFromDimacs(1)}, 1) {
			t.Error("unit import rejected")
		}
		if !add([]Lit{LitFromDimacs(-1)}, 1) {
			t.Error("refuting import not accepted")
		}
	}
	s := New(Options{RestartBase: 1, Exchange: f})
	loadPHPInto(s, 7, 6)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if f.rounds != 1 {
		t.Fatalf("refutation took %d rounds, want 1 (import shortcut not taken)", f.rounds)
	}
	if s.Stats.Imported != 2 {
		t.Fatalf("Stats.Imported = %d, want 2", s.Stats.Imported)
	}
}

// TestImportRejectsForeignAndSatisfied: clauses over unknown variables
// (a different formula's variable space) and clauses already satisfied
// at level 0 must be declined.
func TestImportRejectsForeignAndSatisfied(t *testing.T) {
	f := &fakeExchange{}
	f.deliver = func(round int, add func([]Lit, int32) bool) {
		if round != 1 {
			return
		}
		if add([]Lit{LitFromDimacs(5000)}, 1) {
			t.Error("clause over an unknown variable accepted")
		}
		if !add([]Lit{LitFromDimacs(1)}, 1) {
			t.Error("fresh unit rejected")
		}
		if add([]Lit{LitFromDimacs(1), LitFromDimacs(2)}, 1) {
			t.Error("clause satisfied at level 0 accepted")
		}
	}
	s := New(Options{RestartBase: 1, Exchange: f})
	loadPHPInto(s, 7, 6)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

// TestProofModeRUPGateKeepsCertificateValid: in proof mode an import
// is admitted only when it is RUP against the importer's database, so
// the resulting DRAT certificate must check out even though foreign
// clauses were injected mid-solve.
func TestProofModeRUPGateKeepsCertificateValid(t *testing.T) {
	cnf := php(7, 6)
	var proof bytes.Buffer
	f := &fakeExchange{}
	f.deliver = func(round int, add func([]Lit, int32) bool) {
		if round != 1 {
			return
		}
		// Not RUP at round 1: nothing propagates from assuming pigeon 0
		// out of hole 0 (its at-least-one clause still has 5 open
		// literals), so the unit must be rejected rather than logged.
		if add([]Lit{LitFromDimacs(1)}, 1) {
			t.Error("non-RUP unit admitted in proof mode")
		}
		// RUP (it is an original clause: assuming both literals false
		// falsifies it directly), so it may be admitted and logged.
		if !add([]Lit{LitFromDimacs(-1), LitFromDimacs(-7)}, 2) {
			t.Error("RUP clause rejected in proof mode")
		}
	}
	s := New(Options{RestartBase: 1, ProofWriter: &proof, Exchange: f})
	loadPHPInto(s, 7, 6)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.Stats.Imported == 0 {
		t.Fatal("RUP import not counted")
	}
	if err := CheckDRAT(cnf, bytes.NewReader(proof.Bytes())); err != nil {
		t.Fatalf("DRAT certificate with imported lemma rejected: %v", err)
	}
}

// TestImportedBinaryJoinsImplicationLists: an imported binary clause is
// stored like a learnt binary, as one entry in each of its literals'
// implication lists and nothing in the arena, and is counted in
// Stats.Imported and NumLearnts. In proof mode it passes the RUP gate
// first and the certificate still checks.
func TestImportedBinaryJoinsImplicationLists(t *testing.T) {
	cnf := php(7, 6)
	// Pigeons 1 and 2 are not both in hole 1: an original clause, so RUP.
	a, b := LitFromDimacs(-1), LitFromDimacs(-7)
	for _, proofMode := range []bool{false, true} {
		var proof bytes.Buffer
		var s *Solver
		f := &fakeExchange{}
		f.deliver = func(round int, add func([]Lit, int32) bool) {
			if round != 1 {
				return
			}
			learnts, words := s.NumLearnts(), s.ArenaStats().Words
			if !add([]Lit{a, b}, 2) {
				t.Errorf("proof mode %v: binary import rejected", proofMode)
				return
			}
			if got := s.NumLearnts(); got != learnts+1 {
				t.Errorf("proof mode %v: NumLearnts %d after the import, want %d", proofMode, got, learnts+1)
			}
			if got := s.ArenaStats().Words; got != words {
				t.Errorf("proof mode %v: the import grew the arena from %d to %d words", proofMode, words, got)
			}
			if !slices.Contains(s.bins.list(a), b) || !slices.Contains(s.bins.list(b), a) {
				t.Errorf("proof mode %v: imported clause missing from the implication lists", proofMode)
			}
		}
		opts := Options{RestartBase: 1, Exchange: f}
		if proofMode {
			opts.ProofWriter = &proof
		}
		s = New(opts)
		loadPHPInto(s, 7, 6)
		if st := s.Solve(context.Background()); st != Unsat {
			t.Fatalf("proof mode %v: got %v, want Unsat", proofMode, st)
		}
		if s.Stats.Imported != 1 {
			t.Fatalf("proof mode %v: Stats.Imported = %d, want 1", proofMode, s.Stats.Imported)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("proof mode %v: %v", proofMode, err)
		}
		if proofMode {
			if err := CheckDRAT(cnf, bytes.NewReader(proof.Bytes())); err != nil {
				t.Fatalf("DRAT certificate with an imported binary rejected: %v", err)
			}
		}
	}
}

// TestSeedDiversifiesAndReplays: distinct seeds must change the search
// trajectory; an identical seed must reproduce it exactly.
func TestSeedDiversifiesAndReplays(t *testing.T) {
	run := func(seed int64) Stats {
		s := New(Options{Seed: seed})
		loadPHPInto(s, 7, 6)
		if st := s.Solve(context.Background()); st != Unsat {
			t.Fatalf("seed %d: got %v, want Unsat", seed, st)
		}
		return s.Stats
	}
	a, b, c := run(1), run(2), run(3)
	if a == b && b == c {
		t.Fatalf("three seeds, identical statistics %+v; seeding has no effect", a)
	}
	if again := run(1); again != a {
		t.Fatalf("seed 1 replay differs:\n  %+v\n  %+v", a, again)
	}
	base := New(Options{})
	loadPHPInto(base, 7, 6)
	if st := base.Solve(context.Background()); st != Unsat {
		t.Fatalf("unseeded: got %v, want Unsat", st)
	}
	if base.Stats == a && base.Stats == b {
		t.Fatal("seeded runs indistinguishable from the unseeded baseline")
	}
}
