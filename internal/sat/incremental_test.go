package sat

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func lit(d int) Lit { return LitFromDimacs(d) }

func TestSolveAssumingBasic(t *testing.T) {
	s := New(Options{})
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3)
	s.AddDimacsClause(1, 2)
	s.AddDimacsClause(-1, 3)
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatalf("unconstrained: got %v, want Sat", st)
	}
	if st := s.Solve(context.Background(), lit(1), lit(-3)); st != Unsat {
		t.Fatalf("x1 ∧ ¬x3: got %v, want Unsat", st)
	}
	core := s.FailedAssumptions()
	if len(core) == 0 {
		t.Fatal("assumption Unsat with nil core")
	}
	// The same solver answers Sat again with compatible assumptions.
	if st := s.Solve(context.Background(), lit(1), lit(3)); st != Sat {
		t.Fatalf("x1 ∧ x3: got %v, want Sat", st)
	}
	m := s.Model()
	if !m[0] || !m[2] {
		t.Fatalf("model %v does not satisfy the assumptions", m)
	}
}

func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	if st := s.Solve(context.Background(), lit(3), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat for x3 ∧ ¬x3", st)
	}
	core := s.FailedAssumptions()
	seen := map[Lit]bool{}
	for _, l := range core {
		seen[l] = true
	}
	if !seen[lit(3)] || !seen[lit(-3)] {
		t.Fatalf("core %v should contain both contradictory assumptions", core)
	}
}

func TestSolveAssumingLevelZeroFalse(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(-1) // unit: x1 false
	s.AddDimacsClause(2, 3)
	if st := s.Solve(context.Background(), lit(1)); st != Unsat {
		t.Fatalf("got %v, want Unsat when assuming a level-0-false literal", st)
	}
	core := s.FailedAssumptions()
	if len(core) != 1 || core[0] != lit(1) {
		t.Fatalf("core %v, want [x1]", core)
	}
	// The database itself stays satisfiable.
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatalf("got %v, want Sat without assumptions", st)
	}
}

func TestSolveAssumingCoreIsSubset(t *testing.T) {
	s := New(Options{})
	// Chain: x1 → x2 → x3; assuming x1 and ¬x3 is inconsistent, x5 is
	// irrelevant and must not pollute the core.
	s.AddDimacsClause(-1, 2)
	s.AddDimacsClause(-2, 3)
	if st := s.Solve(context.Background(), lit(5), lit(1), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	for _, l := range s.FailedAssumptions() {
		if l == lit(5) {
			t.Fatalf("irrelevant assumption x5 in core %v", s.FailedAssumptions())
		}
	}
}

func TestAddClausesBetweenSolves(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatal("expected Sat")
	}
	// Tighten the formula between calls: force ¬x1 then ¬x2.
	if !s.AddDimacsClause(-1) {
		t.Fatal("adding ¬x1 should keep the formula consistent")
	}
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatal("expected Sat after ¬x1")
	}
	if m := s.Model(); m[0] || !m[1] {
		t.Fatalf("model %v, want ¬x1 ∧ x2", m)
	}
	s.AddDimacsClause(-2)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatal("expected Unsat after ¬x1 ∧ ¬x2")
	}
	if s.FailedAssumptions() != nil {
		t.Fatalf("genuine Unsat must have nil core, got %v", s.FailedAssumptions())
	}
	// Poisoned database: every further call answers Unsat.
	if st := s.Solve(context.Background(), lit(3)); st != Unsat {
		t.Fatal("poisoned solver must stay Unsat")
	}
}

func TestSolveAssumingFreshVariables(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	// Assume over a variable the solver has never seen.
	if st := s.Solve(context.Background(), lit(-9)); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if m := s.Model(); len(m) < 9 || m[8] {
		t.Fatalf("model %v must assign ¬x9", m)
	}
}

// TestSolveAssumingAgainstBruteForce cross-checks incremental solves
// under random assumption sets, on pure 3-CNF and mixed 2-/3-CNF,
// against the reference solver on the same formula with the
// assumptions added as unit clauses.
func TestSolveAssumingAgainstBruteForce(t *testing.T) {
	for _, k := range []int{3, mixed23} {
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 30; round++ {
			vars := 6 + rng.Intn(6)
			// Below each family's threshold, so that most formulas are
			// satisfiable and the assumptions decide.
			clauses := vars * 4
			if k == mixed23 {
				clauses = vars * 5 / 2
			}
			cnf := randomCNF(rng, vars, clauses, k)
			s := New(Options{})
			if !s.Load(cnf) {
				continue // trivially unsat at load time
			}
			for probe := 0; probe < 6; probe++ {
				var assumps []Lit
				ref := &CNF{NumVars: cnf.NumVars}
				for i := range cnf.NumClauses() {
					ref.AddClause(appendClause(nil, cnf, i)...)
				}
				for v := 1; v <= vars; v++ {
					if rng.Intn(3) != 0 {
						continue
					}
					d := v
					if rng.Intn(2) == 0 {
						d = -v
					}
					assumps = append(assumps, lit(d))
					ref.AddClause(d)
				}
				want, _ := BruteForce(ref)
				got := s.Solve(context.Background(), assumps...)
				if got != want {
					t.Fatalf("k=%d round %d probe %d assumps %v: incremental %v, brute force %v",
						k, round, probe, assumps, got, want)
				}
				if got == Sat {
					m := s.Model()
					if !ref.Eval(m) {
						t.Fatalf("k=%d round %d probe %d: model violates formula+assumptions", k, round, probe)
					}
				} else {
					// The failed core must itself be inconsistent with the
					// original formula.
					coreRef := &CNF{NumVars: cnf.NumVars}
					for i := range cnf.NumClauses() {
						coreRef.AddClause(appendClause(nil, cnf, i)...)
					}
					for _, l := range s.FailedAssumptions() {
						coreRef.AddClause(l.Dimacs())
					}
					if st, _ := BruteForce(coreRef); st != Unsat {
						t.Fatalf("k=%d round %d probe %d: failed core %v is not actually inconsistent",
							k, round, probe, s.FailedAssumptions())
					}
				}
			}
		}
	}
}

// TestIncrementalLearntReuse verifies that learnt clauses survive
// across assumption solves — the property the incremental width
// search relies on.
func TestIncrementalLearntReuse(t *testing.T) {
	cnf := php(8, 7)
	s := New(Options{})
	if !s.Load(cnf) {
		t.Fatal("php should not be trivially unsat")
	}
	// A selector-guarded probe first: the guard variable is free, so
	// the instance stays Unsat (php is unsat on its own).
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.NumLearnts() == 0 && s.Stats.Learnt == 0 {
		t.Fatal("expected learnt clauses from the pigeonhole proof")
	}
}

func TestSolveAssumingContextCancel(t *testing.T) {
	cnf := php(10, 9)
	s := New(Options{})
	if !s.Load(cnf) {
		t.Fatal("unexpected trivial unsat")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if st := s.Solve(ctx); st != Unknown {
		t.Skipf("instance solved before the deadline (%v); cannot exercise cancellation", st)
	}
	// The solver must remain usable: a later call with a fresh context
	// is not poisoned by the earlier cancellation. Contradictory
	// assumptions answer Unsat at once, where a cancellation that stuck
	// would still answer Unknown.
	if st := s.Solve(context.Background(), lit(1), lit(1).Neg()); st != Unsat {
		t.Fatalf("got %v after an expired context, want Unsat", st)
	}
}

// TestSolveAssumingContextStopDoesNotLeak pins that a call's context
// ends with the call: once Solve returns, cancelling its context must
// not reach the solver's next call. (A cancellation that outlives its
// call silently kills the *next* incremental solve — once observed as
// spurious Unknown probes in the width search under scheduler load.)
func TestSolveAssumingContextStopDoesNotLeak(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if st := s.Solve(ctx, lit(1)); st != Sat {
			t.Fatalf("iter %d: got %v, want Sat (the previous call's cancelled context reached this one)", i, st)
		}
		cancel()
		runtime.Gosched()
	}
}

func TestSolveAssumingAlreadyCancelledContext(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.Solve(ctx); st != Unknown {
		t.Fatalf("got %v, want Unknown for a cancelled context", st)
	}
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatalf("got %v, want Sat on retry", st)
	}
}

// TestSolveStartsNoGoroutine pins that a cancellable solve watches its
// context from the solving goroutine itself: by the first Progress
// call no goroutine has been started beside it.
func TestSolveStartsNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	during := -1
	s := New(Options{Progress: func(Stats) {
		if during < 0 {
			during = runtime.NumGoroutine()
		}
	}})
	s.Load(php(7, 6))
	before := runtime.NumGoroutine()
	if st := s.Solve(ctx); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if during < 0 {
		t.Fatal("Progress never fired")
	}
	if during > before {
		t.Fatalf("%d goroutines during the solve, %d before it", during, before)
	}
}

// TestIncrementalDRAT checks the documented DRAT interaction: lemmas
// learnt during assumption-based probes are RUP with respect to the
// clause database alone, so a session of probes that ends in a genuine
// Unsat yields one contiguous checkable refutation.
func TestIncrementalDRAT(t *testing.T) {
	var proof bytes.Buffer
	cnf := php(7, 6)
	// Guard every pigeon's at-least-one clause with selector variable
	// g (DIMACS index = NumVars+1): the formula is Sat while g may be
	// false, Unsat under assumption g.
	sel := cnf.NumVars + 1
	guarded := &CNF{NumVars: sel}
	for i := range cnf.NumClauses() {
		if cl := appendClause(nil, cnf, i); len(cl) > 2 {
			guarded.AddClause(append(cl, -sel)...)
		} else {
			guarded.AddClause(cl...)
		}
	}
	s := New(Options{ProofWriter: &proof})
	if !s.Load(guarded) {
		t.Fatal("unexpected trivial unsat")
	}
	if st := s.Solve(context.Background(), lit(sel)); st != Unsat {
		t.Fatalf("guarded probe: got %v, want Unsat", st)
	}
	if s.FailedAssumptions() == nil {
		t.Fatal("guarded probe must blame the selector assumption")
	}
	if st := s.Solve(context.Background(), lit(-sel)); st != Sat {
		t.Fatalf("relaxed probe: got %v, want Sat", st)
	}
	// Now make the selector permanent: the database becomes genuinely
	// unsatisfiable and the proof must close with the empty clause.
	s.AddDimacsClause(sel)
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatal("expected genuine Unsat after asserting the selector")
	}
	if s.FailedAssumptions() != nil {
		t.Fatal("genuine Unsat must have a nil core")
	}
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	// The proof is checked against the final database (original clauses
	// plus the asserted selector unit).
	guarded.AddClause(sel)
	if err := CheckDRAT(guarded, bytes.NewReader(proof.Bytes())); err != nil {
		t.Fatalf("incremental DRAT proof rejected: %v", err)
	}
}

// TestSolveAssumingRepeatedWidths mimics the descending width search:
// a sequence of strictly stronger assumption sets over one solver, with
// per-call conflict budgets bounding each probe independently.
func TestSolveAssumingConflictBudgetPerCall(t *testing.T) {
	cnf := php(9, 8)
	s := New(Options{ConflictBudget: 5})
	if !s.Load(cnf) {
		t.Fatal("unexpected trivial unsat")
	}
	first := s.Solve(context.Background())
	if first != Unknown {
		t.Skipf("php(9,8) solved within 5 conflicts (%v)?", first)
	}
	// The budget is per call, not lifetime: a second call gets its own
	// 5 conflicts instead of returning immediately.
	before := s.Stats.Conflicts
	if st := s.Solve(context.Background()); st != Unknown {
		t.Skipf("unexpectedly solved on second budgeted call (%v)", st)
	}
	if s.Stats.Conflicts <= before {
		t.Fatal("second call did no work: conflict budget is not per-call")
	}
}
