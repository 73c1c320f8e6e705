package sat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestResetSolvesIndependentProblems reuses one solver across problems
// with different shapes and answers and cross-checks every verdict
// against a fresh solver.
func TestResetSolvesIndependentProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	s := New(Options{})
	for trial := 0; trial < 60; trial++ {
		s.Reset(Options{})
		cnf := randomCNF(rng, 5+rng.Intn(25), 20+rng.Intn(150), 3)
		want := SolveCNFContext(context.Background(), cnf, Options{})
		got := Unsat
		if s.Load(cnf) {
			got = s.Solve()
		}
		if got != want.Status {
			t.Fatalf("trial %d: reused solver says %v, fresh solver says %v", trial, got, want.Status)
		}
		if got == Sat {
			model := make([]bool, cnf.NumVars)
			copy(model, s.Model())
			if !cnf.Eval(model) {
				t.Fatalf("trial %d: reused solver produced a non-model", trial)
			}
		}
	}
}

// TestResetAfterUnsat checks that Reset clears the poisoned (ok=false)
// state left by an unsatisfiable database.
func TestResetAfterUnsat(t *testing.T) {
	s := New(Options{})
	s.Load(php(6, 5))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	s.Reset(Options{})
	if !s.AddDimacsClause(1) || !s.AddDimacsClause(-1, 2) {
		t.Fatal("AddDimacsClause failed after Reset")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("trivially satisfiable formula after Reset = %v, want Sat", st)
	}
	if m := s.Model(); !m[0] || !m[1] {
		t.Fatalf("model after Reset = %v, want both true", m[:2])
	}
}

// TestResetRetainsCapacity is the point of Reset: the arena and
// variable tables keep their backing storage across problems.
func TestResetRetainsCapacity(t *testing.T) {
	s := New(Options{})
	s.Load(php(8, 7))
	s.Solve()
	before := s.ArenaStats()
	if before.CapWords == 0 {
		t.Fatal("no arena capacity after a solve")
	}
	s.Reset(Options{})
	after := s.ArenaStats()
	if after.Words != 0 || after.Clauses != 0 || after.Learnts != 0 {
		t.Fatalf("Reset left live content: %+v", after)
	}
	if after.CapWords != before.CapWords {
		t.Fatalf("Reset dropped arena capacity: %d -> %d words", before.CapWords, after.CapWords)
	}
	if s.NumVars() != 0 {
		t.Fatalf("Reset left %d variables", s.NumVars())
	}
	// The retained capacity must actually be reusable.
	s.Load(php(8, 7))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php(8,7) after Reset = %v, want Unsat", st)
	}
}

// TestGarbageCollection forces reduceDB deletions until the arena
// compacts, and checks both the accounting and the verdict.
func TestGarbageCollection(t *testing.T) {
	s := New(Options{LearntLimit: 300})
	s.Load(php(9, 8))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php(9,8) = %v, want Unsat", st)
	}
	st := s.ArenaStats()
	if st.Collections == 0 {
		t.Fatalf("arena never compacted despite %d deletions", s.Stats.Removed)
	}
	if st.FreedWords == 0 {
		t.Fatal("compaction freed no words")
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDRATAcrossReset: a proof written after Reset must stand on its
// own — it may reference nothing from the previous problem.
func TestDRATAcrossReset(t *testing.T) {
	s := New(Options{})
	s.Load(php(6, 5))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("first solve = %v, want Unsat", st)
	}
	var proof bytes.Buffer
	s.Reset(Options{ProofWriter: &proof, LearntLimit: 200})
	cnf := php(8, 7)
	s.Load(cnf)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("second solve = %v, want Unsat", st)
	}
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	if err := CheckDRAT(cnf, &proof); err != nil {
		t.Fatalf("proof after Reset does not check: %v", err)
	}
}

// TestPoolConcurrent hammers one Pool from several goroutines and
// cross-checks each verdict against a fresh solver; run with -race
// this also validates Get/Put synchronization.
func TestPoolConcurrent(t *testing.T) {
	var pool Pool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				cnf := randomCNF(rng, 5+rng.Intn(20), 20+rng.Intn(100), 3)
				want := SolveCNFContext(context.Background(), cnf, Options{})
				got := SolveCNFReusing(context.Background(), &pool, cnf, Options{})
				if got.Status != want.Status {
					errs <- fmt.Errorf("pooled solver says %v, fresh solver says %v", got.Status, want.Status)
					return
				}
				if got.Status == Sat && !cnf.Eval(got.Model) {
					errs <- fmt.Errorf("pooled solver produced a non-model")
					return
				}
			}
		}(int64(1000 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Gets != 8*20 {
		t.Fatalf("pool Gets = %d, want %d", st.Gets, 8*20)
	}
	if st.Reuses == 0 {
		t.Fatal("pool never reused a solver")
	}
}

// TestNilPoolBuildsFreshSolvers: a nil *Pool hands out fresh solvers
// and drops returned ones, so callers need no pool-or-not branch.
func TestNilPoolBuildsFreshSolvers(t *testing.T) {
	var pool *Pool
	s := pool.Get(Options{})
	s.Load(php(6, 5))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	pool.Put(s)
	if res := SolveCNFReusing(context.Background(), pool, php(5, 5), Options{}); res.Status != Sat {
		t.Fatalf("php(5,5) on a nil pool = %v, want Sat", res.Status)
	}
}

// TestPoolDropsOversizedSolvers: a solver whose retained footprint
// exceeds MaxRetainedWords must be dropped by Put (and counted) so one
// huge instance cannot bloat every later borrower, while a pool with
// the cap disabled keeps recycling it.
func TestPoolDropsOversizedSolvers(t *testing.T) {
	capped := Pool{MaxRetainedWords: 64}
	s := capped.Get(Options{})
	s.Load(php(6, 5))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	if st := s.ArenaStats(); st.CapWords+st.WatchCapWords <= 64 {
		t.Fatalf("test premise broken: footprint %d words fits the 64-word cap", st.CapWords+st.WatchCapWords)
	}
	capped.Put(s)
	if st := capped.Stats(); st.Oversized != 1 {
		t.Fatalf("Oversized = %d, want 1", st.Oversized)
	}
	capped.Get(Options{})
	if st := capped.Stats(); st.Reuses != 0 {
		t.Fatalf("pool served a dropped solver: Reuses = %d", st.Reuses)
	}

	uncapped := Pool{MaxRetainedWords: -1}
	s2 := uncapped.Get(Options{})
	s2.Load(php(6, 5))
	if st := s2.Solve(); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	uncapped.Put(s2)
	if st := uncapped.Stats(); st.Oversized != 0 {
		t.Fatalf("cap disabled but Oversized = %d", st.Oversized)
	}
}
