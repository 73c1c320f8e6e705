package sat

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// checkInvariants verifies structural solver invariants at decision
// level 0: every arena clause has at least three literals and is
// watched on exactly its first two, watch lists reference live clauses,
// every binary clause has both of its implication-list entries and no
// others, no two implication lists share storage, reasons name clauses
// that imply their literal, the trail is consistent with the
// assignment, and the arena's garbage accounting is sound.
func (s *Solver) checkInvariants() error {
	if s.decisionLevel() != 0 {
		return fmt.Errorf("invariants checked above level 0")
	}
	all := map[ClauseRef]bool{}
	liveWords := 0
	for _, list := range [2][]ClauseRef{s.clauses, s.learnts} {
		for _, ref := range list {
			if all[ref] {
				return fmt.Errorf("clause ref %d stored twice", ref)
			}
			all[ref] = true
			liveWords += s.ca.words(ref)
		}
	}
	watched := map[ClauseRef]int{}
	for l := range s.watches {
		for _, w := range s.watches[l] {
			if !all[w.ref] {
				return fmt.Errorf("watch list references removed clause")
			}
			watched[w.ref]++
			lits := s.ca.lits(w.ref)
			if Lit(lits[0]) != Lit(l) && Lit(lits[1]) != Lit(l) {
				return fmt.Errorf("clause watched on a non-watch literal")
			}
		}
	}
	for ref := range all {
		if s.ca.size(ref) < 3 {
			return fmt.Errorf("arena clause with %d literals", s.ca.size(ref))
		}
		if watched[ref] != 2 {
			return fmt.Errorf("clause watched %d times, want 2", watched[ref])
		}
	}
	// Binary clauses: bins[l] holding q is one half of the clause (l ∨ q);
	// its mirror, l in bins[q], must be there as often.
	type pair struct{ l, q Lit }
	halves, entries := map[pair]int{}, 0
	for l, qs := range s.bins {
		for _, q := range qs {
			halves[pair{Lit(l), q}]++
			entries++
		}
	}
	for h, n := range halves {
		if halves[pair{h.q, h.l}] != n {
			return fmt.Errorf("binary clause (%v ∨ %v): entry without its mirror", h.l, h.q)
		}
	}
	if want := 2 * (s.binClauses + s.binLearnts); entries != want {
		return fmt.Errorf("%d binary entries, want 2 × (%d problem + %d learnt)",
			entries, s.binClauses, s.binLearnts)
	}
	// No two implication lists share backing storage, so an append to
	// one can never overwrite another's entries.
	type span struct {
		lit    int
		lo, hi uintptr
	}
	var spans []span
	for l, qs := range s.bins {
		if cap(qs) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(qs)))
			spans = append(spans, span{l, lo, lo + uintptr(cap(qs))*unsafe.Sizeof(qs[0])})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if prev := spans[i-1]; spans[i].lo < prev.hi {
			return fmt.Errorf("implication lists of literals %d and %d share backing storage", prev.lit, spans[i].lit)
		}
	}
	// Arena accounting: live words plus recorded garbage must exactly
	// tile the arena.
	if liveWords+s.ca.wasted != len(s.ca.data) {
		return fmt.Errorf("arena accounting: %d live + %d wasted != %d total",
			liveWords, s.ca.wasted, len(s.ca.data))
	}
	for v, r := range s.reason {
		if r == RefUndef {
			continue
		}
		if s.assigns[v] == lUndef {
			continue // stale reason of an unassigned var is never read
		}
		if isBinRef(r) {
			// (implied ∨ other): other is false and its list names implied.
			implied, other := MkLit(Var(v), s.assigns[v] == lFalse), binLit(r)
			if s.value(other) != lFalse || halves[pair{other, implied}] == 0 {
				return fmt.Errorf("var %d binary reason %v does not imply it", v, other)
			}
			continue
		}
		if !all[r] {
			return fmt.Errorf("var %d reason references removed clause", v)
		}
		if Lit(s.ca.lits(r)[0]).Var() != Var(v) {
			return fmt.Errorf("var %d reason clause does not propagate it", v)
		}
	}
	for i, l := range s.trail {
		if s.value(l) != lTrue {
			return fmt.Errorf("trail[%d] not true under assignment", i)
		}
	}
	if s.qhead > len(s.trail) {
		return fmt.Errorf("qhead %d beyond trail %d", s.qhead, len(s.trail))
	}
	return nil
}

// TestInvariantsRejectSharedLists: checkInvariants must catch two
// implication lists carved over the same storage, the defect that would
// let an append to one overwrite the other.
func TestInvariantsRejectSharedLists(t *testing.T) {
	s := New(Options{})
	s.Load(&CNF{NumVars: 3, Clauses: [][]int{{1, 2}, {-1, 3}}})
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	a, b := PosLit(0), NegLit(0)
	shared := make([]Lit, 2)
	s.bins[a] = append(shared[:0:2], s.bins[a]...)
	s.bins[b] = append(shared[1:1:2], s.bins[b]...)
	if err := s.checkInvariants(); err == nil || !strings.Contains(err.Error(), "share") {
		t.Fatalf("two implication lists over one block: invariant check says %v", err)
	}
}

func TestInvariantsAfterSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 40; trial++ {
		s := New(Options{})
		cnf := randomCNF(rng, 10+rng.Intn(30), 60+rng.Intn(120), 3)
		if s.Load(cnf) {
			s.Solve()
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestInvariantsAfterBudgetedSolve(t *testing.T) {
	// Interrupted searches (restart path, reduceDB path) must leave the
	// solver structurally sound too.
	s := New(Options{ConflictBudget: 400})
	s.Load(php(10, 9))
	if st := s.Solve(); st != Unknown {
		t.Skipf("instance solved within budget: %v", st)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterReduceDB(t *testing.T) {
	// Force learnt-clause deletion by solving something conflict-heavy
	// under a small learnt-database cap, then check structure. PHP(9,8)
	// generates thousands of conflicts, so the cap makes reduceDB delete
	// clauses and (once a fifth of the arena is garbage) compact the
	// arena.
	s := New(Options{LearntLimit: 300})
	s.Load(php(9, 8))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Stats.Removed == 0 {
		t.Fatalf("reduceDB never deleted a clause; invariant test is vacuous")
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterReset(t *testing.T) {
	// A reused solver must be structurally indistinguishable from a
	// fresh one, across problems of different shapes and answers.
	rng := rand.New(rand.NewSource(909))
	s := New(Options{})
	for trial := 0; trial < 40; trial++ {
		s.Reset(Options{})
		cnf := randomCNF(rng, 10+rng.Intn(30), 60+rng.Intn(120), 3)
		if s.Load(cnf) {
			s.Solve()
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if s.Resets() != 40 {
		t.Fatalf("Resets() = %d, want 40", s.Resets())
	}
}

// TestBinaryClausesStayOutOfArena: a binary clause is two
// implication-list entries and nothing in the arena. A 2-CNF loads with
// an empty arena while NumClauses counts every clause, and solving it
// keeps the arena empty, since first-UIP learning over binary reasons
// only derives clauses of one or two literals.
func TestBinaryClausesStayOutOfArena(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var conflicts int64
	for trial := 0; trial < 20; trial++ {
		cnf := randomCNF(rng, 30, 30+rng.Intn(15), 2)
		s := New(Options{})
		if !s.Load(cnf) {
			t.Fatalf("trial %d: a 2-CNF without units refuted while loading", trial)
		}
		if st := s.ArenaStats(); st.Words != 0 || s.NumClauses() != len(cnf.Clauses) {
			t.Fatalf("trial %d: %d arena words, NumClauses %d; want 0 and %d",
				trial, st.Words, s.NumClauses(), len(cnf.Clauses))
		}
		s.Solve()
		conflicts += s.Stats.Conflicts
		if st := s.ArenaStats(); st.Words != 0 || int64(s.NumLearnts()) != s.Stats.Learnt {
			t.Fatalf("trial %d: %d arena words, %d learnts of %d learnt; want 0 and all",
				trial, st.Words, s.NumLearnts(), s.Stats.Learnt)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if conflicts == 0 {
		t.Fatal("no conflicts: binary conflict analysis never ran")
	}
}
