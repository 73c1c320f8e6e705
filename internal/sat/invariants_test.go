package sat

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkInvariants verifies structural solver invariants at decision
// level 0: every arena clause has at least three literals and is
// watched on exactly its first two, watch lists reference live clauses,
// no two literals share a watch list and the shared empty one is empty,
// every binary clause has both of its implication-list entries and no
// others, the implication-list store is sound (see
// implLists.checkInvariants), reasons name clauses that imply their
// literal, the trail is consistent with the assignment, and the arena's
// garbage accounting is sound.
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
	if len(s.watches.blocks[0][0]) != 0 {
		return fmt.Errorf("the shared empty watch list holds %d entries", len(s.watches.blocks[0][0]))
	}
	owner := map[uint32]int{}
	for l, n := range s.watches.idx {
		if n >= s.watches.next {
			return fmt.Errorf("literal %d holds watch list %d, not handed out before %d", l, n, s.watches.next)
		}
		if o, shared := owner[n]; shared && n != 0 {
			return fmt.Errorf("literals %d and %d share watch list %d", o, l, n)
		}
		owner[n] = l
		for _, w := range *s.watches.list(Lit(l)) {
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
	// Binary clauses: l's list holding q is one half of the clause
	// (l ∨ q); its mirror, l in q's list, must be there as often.
	type pair struct{ l, q Lit }
	halves, entries := map[pair]int{}, 0
	for l := range s.bins.spans {
		for _, q := range s.bins.list(Lit(l)) {
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
	if err := s.bins.checkInvariants(); err != nil {
		return err
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

// implLists.checkInvariants verifies the implication-list store: every
// list fits its slot, every slot lies inside its region, no two slots
// overlap, live slots plus recorded garbage exactly tile both regions
// (the arena's accounting rule), and moved names each list of the
// overflow region once.
func (il *implLists) checkInvariants() error {
	type slot struct{ lit, lo, hi int }
	var slots [2][]slot // slab, overflow region
	regions := [2]int{len(il.slab), len(il.over)}
	for l, sp := range il.all() {
		if sp.n > sp.cap {
			return fmt.Errorf("list of literal %d holds %d entries in a slot of %d", l, sp.n, sp.cap)
		}
		r, lo := 0, int(sp.off)
		if sp.off&inOver != 0 {
			r, lo = 1, int(sp.off&^inOver)
		}
		if hi := lo + int(sp.cap); hi > regions[r] {
			return fmt.Errorf("slot of literal %d ends at %d, past its region of %d", l, hi, regions[r])
		} else if sp.cap > 0 {
			slots[r] = append(slots[r], slot{l, lo, hi})
		}
	}
	live := 0
	for _, ss := range slots {
		slices.SortFunc(ss, func(a, b slot) int { return cmp.Compare(a.lo, b.lo) })
		for i, sl := range ss {
			if i > 0 && sl.lo < ss[i-1].hi {
				return fmt.Errorf("slots of literals %d and %d overlap", ss[i-1].lit, sl.lit)
			}
			live += sl.hi - sl.lo
		}
	}
	if live+il.garbage != len(il.slab)+len(il.over) {
		return fmt.Errorf("implication-list accounting: %d live + %d garbage != %d + %d entries",
			live, il.garbage, len(il.slab), len(il.over))
	}
	moved := map[Lit]bool{}
	for _, l := range il.moved {
		if moved[l] || il.all()[l].off&inOver == 0 {
			return fmt.Errorf("moved names literal %d twice or outside the overflow region", l)
		}
		moved[l] = true
	}
	if len(moved) != len(slots[1]) {
		return fmt.Errorf("moved names %d lists, the overflow region holds %d", len(moved), len(slots[1]))
	}
	return nil
}

// TestInvariantsRejectSharedLists: checkInvariants must catch a span
// stretched over its neighbour's slot, the defect that would let an
// append to one list overwrite the other.
func TestInvariantsRejectSharedLists(t *testing.T) {
	s := New(Options{})
	f := &CNF{}
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	s.Load(f)
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	a, b := s.bins.spans[PosLit(0)], s.bins.spans[NegLit(0)]
	if a.cap == 0 || a.off+a.cap != b.off {
		t.Fatalf("test premise broken: slots %+v and %+v are not neighbours", a, b)
	}
	s.bins.spans[PosLit(0)].cap++
	if err := s.checkInvariants(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("a span stretched over its neighbour's slot: invariant check says %v", err)
	}
}

func TestInvariantsAfterSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 40; trial++ {
		s := New(Options{})
		cnf := randomCNF(rng, 10+rng.Intn(30), 60+rng.Intn(120), 3)
		if s.Load(cnf) {
			s.Solve(context.Background())
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
	if st := s.Solve(context.Background()); st != Unknown {
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
	if st := s.Solve(context.Background()); st != Unsat {
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
			s.Solve(context.Background())
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
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
		if st := s.ArenaStats(); st.Words != 0 || s.NumClauses() != cnf.NumClauses() {
			t.Fatalf("trial %d: %d arena words, NumClauses %d; want 0 and %d",
				trial, st.Words, s.NumClauses(), cnf.NumClauses())
		}
		s.Solve(context.Background())
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
