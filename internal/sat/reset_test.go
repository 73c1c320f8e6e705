package sat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
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
			got = s.Solve(context.Background())
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
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	s.Reset(Options{})
	if !s.AddDimacsClause(1) || !s.AddDimacsClause(-1, 2) {
		t.Fatal("AddDimacsClause failed after Reset")
	}
	if st := s.Solve(context.Background()); st != Sat {
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
	s.Solve(context.Background())
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
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("php(8,7) after Reset = %v, want Unsat", st)
	}
}

// TestAddClauseAllocationFree: once a solver holds the capacity for a
// clause, loading it again allocates nothing, binary or not.
func TestAddClauseAllocationFree(t *testing.T) {
	for _, cl := range [][]int{{2, -1}, {3, -1, 2}} {
		s := New(Options{})
		allocs := testing.AllocsPerRun(100, func() {
			s.Reset(Options{})
			s.AddDimacsClause(cl...)
		})
		if allocs != 0 {
			t.Errorf("loading a %d-literal clause into a warm solver: %v allocations, want 0", len(cl), allocs)
		}
	}
}

// TestLoadAllocsIndependentOfVars: Load grows every per-variable and
// per-literal table once, to the formula's variable count, so loading N
// variables takes the same number of allocations at any N. A Reset
// solver that grows past its retained tables keeps the per-literal
// lists it retained.
func TestLoadAllocsIndependentOfVars(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() { New(Options{}).Load(&CNF{NumVars: n}) })
	}
	small, large := allocs(1000), allocs(100000)
	t.Logf("Load of an empty formula: %.0f allocations at 1,000 variables, %.0f at 100,000", small, large)
	if small != large {
		t.Errorf("Load makes %.0f allocations at 100,000 variables against %.0f at 1,000", large, small)
	}
	s := New(Options{})
	s.Load(&CNF{NumVars: 1000})
	if cap(s.assigns) != 1000 || cap(s.activity) != 1000 || cap(s.watches) != 2000 || cap(s.bins.spans) != 2000 {
		t.Errorf("tables sized %d/%d/%d/%d, want 1000/1000/2000/2000",
			cap(s.assigns), cap(s.activity), cap(s.watches), cap(s.bins.spans))
	}

	s = New(Options{})
	f := php(8, 7)
	s.Load(f)
	kept := s.ArenaStats().WatchCapWords
	s.Reset(Options{})
	s.Load(&CNF{NumVars: 4 * f.NumVars})
	if got := s.ArenaStats().WatchCapWords; got != kept {
		t.Errorf("growing a Reset solver kept %d words of per-literal lists, want %d", got, kept)
	}
}

// TestLoadAllocsIndependentOfClauses: a fresh solver carves every
// implication list of a 2-CNF from one block that a census sizes, so
// loading 100,000 binary clauses takes as many allocations as loading
// 1,000, through Load and through the encoder's SolverSink protocol
// (DeclareVars, Census, then the clauses) alike. Reloading into a Reset
// solver creates no list, so it takes no census and allocates nothing.
func TestLoadAllocsIndependentOfClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small, large := randomCNF(rng, 2000, 1000, 2), randomCNF(rng, 2000, 100000, 2)
	var buf []int // one clause as DIMACS integers
	paths := []struct {
		name string
		load func(*CNF)
	}{
		{"Load", func(f *CNF) { New(Options{}).Load(f) }},
		{"SolverSink", func(f *CNF) {
			ss := SolverSink{S: New(Options{})}
			ss.DeclareVars(f.NumVars)
			ss.Census(func(count func(lits ...int)) {
				for i := range f.NumClauses() {
					buf = appendClause(buf[:0], f, i)
					count(buf...)
				}
			})
			for i := range f.NumClauses() {
				buf = appendClause(buf[:0], f, i)
				ss.AddClause(buf...)
			}
		}},
	}
	for _, p := range paths {
		a := testing.AllocsPerRun(2, func() { p.load(small) })
		b := testing.AllocsPerRun(2, func() { p.load(large) })
		t.Logf("%s of a 2-CNF over 2,000 variables: %.0f allocations at 1,000 clauses, %.0f at 100,000", p.name, a, b)
		if a != b {
			t.Errorf("%s makes %.0f allocations at 100,000 binary clauses against %.0f at 1,000", p.name, b, a)
		}
	}
	s := New(Options{})
	s.Load(large)
	if allocs := testing.AllocsPerRun(2, func() { s.Reset(Options{}); s.Load(large) }); allocs != 0 {
		t.Errorf("reloading a Reset solver: %.0f allocations, want 0", allocs)
	}
}

// TestResetReusesImplicationLists reuses one solver across mixed
// 2-/3-CNF formulas that alternately grow it past the implication lists
// it kept and shrink it back, so loads reuse kept lists and carve new
// ones from a census. Every answer must match a fresh solver's after the
// same search, every new list must be carved at exactly its length, and
// the lists must stay sound.
func TestResetReusesImplicationLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	s := New(Options{})
	var verdicts [3]int
	for trial := 0; trial < 40; trial++ {
		vars := 8 + rng.Intn(8)
		if trial%2 == 1 {
			vars = 20 + 3*trial // past every list kept so far
		}
		cnf := randomCNF(rng, vars, vars*(3+rng.Intn(4))/2, mixed23)
		kept := cap(s.bins.spans)
		s.Reset(Options{})
		fresh := New(Options{})
		fresh.Load(cnf)
		if !s.Load(cnf) {
			t.Fatalf("trial %d: a formula without units refuted while loading", trial)
		}
		for l := kept; l < len(s.bins.spans); l++ {
			if sp := s.bins.spans[l]; sp.n != sp.cap {
				t.Fatalf("trial %d: new list of literal %d holds %d entries in a capacity of %d", trial, l, sp.n, sp.cap)
			}
		}
		got, want := s.Solve(context.Background()), fresh.Solve(context.Background())
		verdicts[got]++
		if got != want || s.Stats != fresh.Stats {
			t.Fatalf("trial %d: reused solver says %v after %d conflicts, fresh solver %v after %d",
				trial, got, s.Stats.Conflicts, want, fresh.Stats.Conflicts)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 {
		t.Fatalf("verdicts %v: want both Sat and Unsat answers", verdicts)
	}
}

// TestCarvedListsOverflow: learnt binaries and binary clauses added
// between assumption solves append past the slots a census carved,
// which moves those lists to storage of their own. The solver must
// search exactly as one whose lists grew by append alone.
func TestCarvedListsOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(6262))
	overflowed := 0
	for trial := 0; trial < 20; trial++ {
		cnf := randomCNF(rng, 40, 100+rng.Intn(40), mixed23)
		carved := New(Options{})
		carved.Load(cnf)
		_, slots := ImplicationLists(carved)
		grown := New(Options{})
		for grown.NumVars() < cnf.NumVars {
			grown.NewVar()
		}
		for i := range cnf.NumClauses() {
			grown.AddDimacsClause(appendClause(nil, cnf, i)...)
		}
		lit := func() Lit { return MkLit(Var(rng.Intn(cnf.NumVars)), rng.Intn(2) == 0) }
		for round := 0; round < 4; round++ {
			assumps := []Lit{lit(), lit()}
			got, want := carved.Solve(context.Background(), assumps...), grown.Solve(context.Background(), assumps...)
			if got != want || carved.Stats != grown.Stats {
				t.Fatalf("trial %d round %d: carved lists give %v after %d conflicts, appended lists %v after %d",
					trial, round, got, carved.Stats.Conflicts, want, grown.Stats.Conflicts)
			}
			for i := 0; i < 3; i++ {
				a, b := lit(), lit()
				if a.Var() != b.Var() {
					carved.AddClause(a, b)
					grown.AddClause(a, b)
				}
			}
		}
		for l, sp := range carved.bins.spans {
			if int(sp.n) > slots[l] && slots[l] > 0 {
				overflowed++
			}
		}
		for _, s := range []*Solver{carved, grown} {
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
	if overflowed == 0 {
		t.Fatal("no carved list overflowed; the test is vacuous")
	}
}

// implications returns a copy of every implication list, indexed by
// literal.
func implications(s *Solver) [][]Lit {
	lists := make([][]Lit, len(s.bins.spans))
	for l := range lists {
		lists[l] = slices.Clone(s.bins.list(Lit(l)))
	}
	return lists
}

// TestCensusKeepsExistingLists: a load that creates lists takes a census
// even when the solver already holds clauses, and the census must leave
// every entry of those clauses where the search reads it. A formula is
// loaded, then a second one over more variables follows without Reset,
// through Load and through the encoder's SolverSink protocol. The first
// formula's entries must still open their lists, in order, and the solver
// must search exactly as one fed both formulas through AddClause.
func TestCensusKeepsExistingLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7373))
	paths := []struct {
		name string
		load func(*Solver, *CNF)
	}{
		{"Load", func(s *Solver, f *CNF) { s.Load(f) }},
		{"SolverSink", func(s *Solver, f *CNF) {
			ss := SolverSink{S: s}
			ss.DeclareVars(f.NumVars)
			ss.Census(func(count func(lits ...int)) {
				for i := range f.NumClauses() {
					count(appendClause(nil, f, i)...)
				}
			})
			for i := range f.NumClauses() {
				ss.AddClause(appendClause(nil, f, i)...)
			}
		}},
	}
	kept := 0
	for trial := 0; trial < 20; trial++ {
		first := randomCNF(rng, 30, 50+rng.Intn(20), mixed23)
		second := randomCNF(rng, 60+rng.Intn(20), 100+rng.Intn(40), mixed23)
		for _, p := range paths {
			s := New(Options{})
			s.Load(first)
			before := implications(s)
			p.load(s, second)
			appended := New(Options{})
			for _, f := range []*CNF{first, second} {
				for appended.NumVars() < f.NumVars {
					appended.NewVar()
				}
				for i := range f.NumClauses() {
					appended.AddDimacsClause(appendClause(nil, f, i)...)
				}
			}
			after := implications(s)
			for l, qs := range before {
				if len(after[l]) < len(qs) || !slices.Equal(after[l][:len(qs)], qs) {
					t.Fatalf("trial %d %s: literal %d's list %v became %v", trial, p.name, l, qs, after[l])
				}
				kept += len(qs)
			}
			got, want := s.Solve(context.Background()), appended.Solve(context.Background())
			if got != want || s.Stats != appended.Stats {
				t.Fatalf("trial %d %s: the solver says %v after %d conflicts, one fed by AddClause %v after %d",
					trial, p.name, got, s.Stats.Conflicts, want, appended.Stats.Conflicts)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.name, err)
			}
		}
	}
	if kept == 0 {
		t.Fatal("the first formulas held no binary clause; the test is vacuous")
	}
}

// TestOverflowKeepsCensusSlab: binary clauses added between solves move
// the lists they overflow, and only those lists. A 2-CNF of 100,000
// clauses loads into carved slots; ten more binary clauses, each added
// between assumption solves, may grow the retained list footprint by
// the moved lists, under 1%, never by a second copy of every slot.
func TestOverflowKeepsCensusSlab(t *testing.T) {
	const vars = 20000
	rng := rand.New(rand.NewSource(8484))
	// Negative pairs, like the conflict clauses of a coloring: the
	// all-false assignment satisfies them, so no solve fixes a variable
	// and every added clause is stored.
	pair := func() (int, int) {
		a := 1 + rng.Intn(vars)
		b := 1 + rng.Intn(vars-1)
		if b >= a {
			b++
		}
		return -a, -b
	}
	f := &CNF{NumVars: vars}
	for f.NumClauses() < 100000 {
		f.AddClause(pair())
	}
	s := New(Options{})
	s.Load(f)
	_, slots := ImplicationLists(s)
	loaded := s.ArenaStats().WatchCapWords
	for i := 0; i < 10; i++ {
		if st := s.Solve(context.Background()); st != Sat {
			t.Fatalf("round %d: %v, want Sat", i, st)
		}
		a, b := pair()
		s.AddDimacsClause(a, b)
	}
	if st := s.Solve(context.Background()); st != Sat {
		t.Fatalf("final solve: %v, want Sat", st)
	}
	moved := 0
	lens, _ := ImplicationLists(s)
	for l, n := range lens {
		if n > slots[l] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no list outgrew its slot; the test is vacuous")
	}
	grown := s.ArenaStats().WatchCapWords - loaded
	t.Logf("%d lists moved; list footprint %d -> %d words", moved, loaded, loaded+grown)
	if grown*100 >= loaded {
		t.Errorf("ten binary clauses grew the list footprint by %d of %d words, 1%% or more", grown, loaded)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaStatsCountsRetainedLists: a Reset solver keeps the lists of
// its largest problem whatever the size of the next one, so ArenaStats
// must count every list it retains, or Pool.MaxRetainedWords would not
// cap them.
func TestArenaStatsCountsRetainedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(9595))
	s := New(Options{})
	s.Load(randomCNF(rng, 20000, 80000, mixed23))
	big := s.ArenaStats().WatchCapWords
	s.Reset(Options{})
	s.Load(randomCNF(rng, 100, 300, mixed23))
	if got := s.ArenaStats().WatchCapWords; got < big {
		t.Errorf("after a load over 20,000 variables and a Reset, a load over 100 counts %d words of lists, want at least the %d retained", got, big)
	}
}

// TestGarbageCollection forces reduceDB deletions until the arena
// compacts, and checks both the accounting and the verdict.
func TestGarbageCollection(t *testing.T) {
	s := New(Options{LearntLimit: 300})
	s.Load(php(9, 8))
	if st := s.Solve(context.Background()); st != Unsat {
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
	if st := s.Solve(context.Background()); st != Unsat {
		t.Fatalf("first solve = %v, want Unsat", st)
	}
	var proof bytes.Buffer
	s.Reset(Options{ProofWriter: &proof, LearntLimit: 200})
	cnf := php(8, 7)
	s.Load(cnf)
	if st := s.Solve(context.Background()); st != Unsat {
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
	if st := s.Solve(context.Background()); st != Unsat {
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
	if st := s.Solve(context.Background()); st != Unsat {
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
	if st := s2.Solve(context.Background()); st != Unsat {
		t.Fatalf("php(6,5) = %v, want Unsat", st)
	}
	uncapped.Put(s2)
	if st := uncapped.Stats(); st.Oversized != 0 {
		t.Fatalf("cap disabled but Oversized = %d", st.Oversized)
	}
}
