package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestImplicationListsAgainstSlices drives the implication-list store
// through random new variables, binary clauses, loads (a census, then the
// counted entries) and resets, with lists moving to the overflow region,
// back to the slab and through repacks. After every step each list must
// equal a plain slice fed the same entries and the store's invariants
// must hold. A load creating lists takes a census, and every list empty
// at the census must then fill exactly its slot; a load after a Reset
// that creates none takes no census.
func TestImplicationListsAgainstSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(4646))
	var il implLists
	var ref [][]Lit
	addVars := func(n int) {
		for ; n > 0; n-- {
			il.addVar()
			ref = append(ref, nil, nil)
		}
	}
	add := func(a, b Lit) {
		il.add(a, b)
		ref[a] = append(ref[a], b)
		ref[b] = append(ref[b], a)
	}
	lit := func() Lit { return Lit(rng.Intn(len(ref))) }
	var moves, repacks, censuses int
	for step := 0; step < 4000; step++ {
		moved, over := len(il.moved), cap(il.over)
		switch op := rng.Intn(40); {
		case op == 0:
			il.reset()
			ref = ref[:0]
		case op < 3 || len(ref) == 0:
			addVars(1 + rng.Intn(4))
		case op < 6:
			addVars(1 + rng.Intn(4))
			var clauses [][2]Lit
			for i := rng.Intn(40); i > 0; i-- {
				clauses = append(clauses, [2]Lit{lit(), lit()})
			}
			var empty []Lit
			for l := range ref {
				if len(ref[l]) == 0 {
					empty = append(empty, Lit(l))
				}
			}
			counted := false
			il.census(func() {
				counted = true
				for _, c := range clauses {
					il.count(c[0], c[1])
				}
			})
			if !counted {
				empty = nil
			} else {
				censuses++
			}
			for _, c := range clauses {
				add(c[0], c[1])
			}
			for _, l := range empty {
				if sp := il.spans[l]; sp.n != sp.cap {
					t.Fatalf("step %d: list of literal %d, empty at the census, holds %d entries in a slot of %d", step, l, sp.n, sp.cap)
				}
			}
		default:
			add(lit(), lit())
		}
		if len(il.moved) > moved {
			moves++
		}
		if cap(il.over) != over {
			repacks++
		}
		if len(il.spans) != len(ref) {
			t.Fatalf("step %d: %d lists, want %d", step, len(il.spans), len(ref))
		}
		for l := range ref {
			if got := il.list(Lit(l)); !slices.Equal(got, ref[l]) {
				t.Fatalf("step %d: list of literal %d is %v, want %v", step, l, got, ref[l])
			}
		}
		if err := il.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if moves == 0 || repacks == 0 || censuses == 0 {
		t.Fatalf("%d moves, %d repacks, %d censuses: want each", moves, repacks, censuses)
	}
}
