package share

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"fpgasat/internal/sat"
)

func lits(ds ...int) []sat.Lit {
	out := make([]sat.Lit, len(ds))
	for i, d := range ds {
		out[i] = sat.LitFromDimacs(d)
	}
	return out
}

// collectImports drains a lane's imports into a slice via Restart.
func collectImports(l *Lane) [][]sat.Lit {
	var got [][]sat.Lit
	l.Restart(func(ls []sat.Lit, lbd int32) bool {
		got = append(got, append([]sat.Lit(nil), ls...))
		return true
	})
	return got
}

func TestFilterDedupAndFlow(t *testing.T) {
	ex := NewExchange([]string{"g", "g"}, Options{MaxLBD: 2, MaxSize: 3})
	l0, l1 := ex.Lane(0), ex.Lane(1)
	if l0.Peers() != 1 || l1.Peers() != 1 {
		t.Fatalf("peers = %d/%d, want 1/1", l0.Peers(), l1.Peers())
	}

	l0.Learnt(lits(1, 2, 3), 5)    // LBD above bound: filtered
	l0.Learnt(lits(1, 2, 3, 4), 1) // too long: filtered
	l0.Learnt(lits(1, 2, 3), 2)    // exported
	l0.Learnt(lits(3, 1, 2), 2)    // same literal set, reordered: duplicate
	l0.Restart(func([]sat.Lit, int32) bool { return false })

	st := ex.Stats()
	if st.Filtered != 2 || st.Duplicates != 1 || st.Exported != 1 {
		t.Fatalf("stats after export = %+v", st)
	}

	got := collectImports(l1)
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("lane 1 imported %v, want one 3-literal clause", got)
	}
	if st := ex.Stats(); st.Imported != 1 || st.Rejected != 0 {
		t.Fatalf("stats after import = %+v", st)
	}

	// Re-import on the next round must dedup, and the importer must not
	// re-export a clause it imported.
	if got := collectImports(l1); len(got) != 0 {
		t.Fatalf("second import delivered %v, want nothing", got)
	}
	l1.Learnt(lits(2, 3, 1), 1) // organically re-learnt after import
	l1.Restart(func([]sat.Lit, int32) bool { return false })
	if got := collectImports(l0); len(got) != 0 {
		t.Fatalf("clause ping-ponged back to its exporter: %v", got)
	}
}

func TestGroupIsolation(t *testing.T) {
	ex := NewExchange([]string{"a", "b", "a"}, Options{})
	if ex.Lane(0).Peers() != 1 || ex.Lane(1).Peers() != 0 || ex.Lane(2).Peers() != 1 {
		t.Fatalf("peer counts = %d/%d/%d, want 1/0/1",
			ex.Lane(0).Peers(), ex.Lane(1).Peers(), ex.Lane(2).Peers())
	}
	ex.Lane(1).Learnt(lits(7, 8), 1)
	ex.Lane(1).Restart(func([]sat.Lit, int32) bool { return true })
	if got := collectImports(ex.Lane(0)); len(got) != 0 {
		t.Fatalf("clause crossed group boundary: %v", got)
	}
}

func TestRingOverflowCountsDropped(t *testing.T) {
	ex := NewExchange([]string{"g", "g"}, Options{RingSize: 4, ImportBudget: 100})
	l0, l1 := ex.Lane(0), ex.Lane(1)
	for i := 0; i < 10; i++ {
		l0.Learnt(lits(i+1, i+2), 1)
	}
	l0.Restart(func([]sat.Lit, int32) bool { return false })

	got := collectImports(l1)
	if len(got) != 4 {
		t.Fatalf("imported %d clauses from a 4-slot ring, want 4", len(got))
	}
	if st := ex.Stats(); st.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", st.Dropped)
	}
}

func TestImportBudgetBoundsBatch(t *testing.T) {
	ex := NewExchange([]string{"g", "g"}, Options{ImportBudget: 3})
	l0 := ex.Lane(0)
	for i := 0; i < 8; i++ {
		l0.Learnt(lits(i+1, i+2), 1)
	}
	l0.Restart(func([]sat.Lit, int32) bool { return false })
	if got := collectImports(ex.Lane(1)); len(got) != 3 {
		t.Fatalf("imported %d clauses, want budget of 3", len(got))
	}
	if got := collectImports(ex.Lane(1)); len(got) != 3 {
		t.Fatalf("second round imported %d clauses, want 3", len(got))
	}
}

func TestCloseUnblocksDeterministicWaiters(t *testing.T) {
	ex := NewExchange([]string{"g", "g"}, Options{Deterministic: true})
	done := make(chan struct{})
	go func() {
		// Lane 0 publishes round 1 and then waits for lane 1's round 1,
		// which never comes.
		ex.Lane(0).Restart(func([]sat.Lit, int32) bool { return true })
		close(done)
	}()
	ex.Lane(1).Close()
	<-done

	// Same again, unblocked by closing the whole exchange.
	ex2 := NewExchange([]string{"g", "g"}, Options{Deterministic: true})
	done2 := make(chan struct{})
	go func() {
		ex2.Lane(0).Restart(func([]sat.Lit, int32) bool { return true })
		close(done2)
	}()
	ex2.Close()
	<-done2
}

func TestMixSeedNeverZeroAndSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for lane := int64(0); lane < 64; lane++ {
		m := MixSeed(1, lane)
		if m == 0 {
			t.Fatalf("MixSeed(1,%d) = 0", lane)
		}
		if seen[m] {
			t.Fatalf("MixSeed collision at lane %d", lane)
		}
		seen[m] = true
	}
}

// loadPHP adds the pigeonhole formula PHP(pigeons, holes) to the sink —
// unsat iff pigeons > holes, with enough conflicts to restart under a
// small RestartBase. Returns the formula for DRAT checking.
func loadPHP(add func(ds ...int) bool, pigeons, holes int) *sat.CNF {
	cnf := &sat.CNF{}
	v := func(p, h int) int { return p*holes + h + 1 }
	for p := 0; p < pigeons; p++ {
		cl := make([]int, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		cnf.AddClause(cl...)
		add(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				cnf.AddClause(-v(p1, h), -v(p2, h))
				add(-v(p1, h), -v(p2, h))
			}
		}
	}
	return cnf
}

type sharedRun struct {
	status []sat.Status
	proofs [][]byte
	stats  []sat.Stats
	share  Stats
}

// runSharedPHP solves PHP(7,6) on n cooperating solvers in
// deterministic replay mode, each with its own seed and DRAT proof.
func runSharedPHP(t *testing.T, n int, seed int64) sharedRun {
	t.Helper()
	groups := make([]string, n)
	for i := range groups {
		groups[i] = "php"
	}
	ex := NewExchange(groups, Options{Seed: seed, Deterministic: true})
	defer ex.Close()

	out := sharedRun{
		status: make([]sat.Status, n),
		proofs: make([][]byte, n),
		stats:  make([]sat.Stats, n),
	}
	bufs := make([]bytes.Buffer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := ex.Lane(i)
			defer lane.Close()
			s := sat.New(sat.Options{
				Seed:        MixSeed(seed, int64(i)),
				RestartBase: 10,
				ProofWriter: &bufs[i],
				Exchange:    lane,
			})
			loadPHP(s.AddDimacsClause, 7, 6)
			out.status[i] = s.Solve(context.Background())
			out.stats[i] = s.Stats
			if err := s.ProofError(); err != nil {
				t.Errorf("lane %d proof error: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := range bufs {
		out.proofs[i] = bufs[i].Bytes()
	}
	out.share = ex.Stats()
	return out
}

// TestDeterministicReplayIdenticalProofs is the determinism acceptance
// test: two seeded replay runs of a cooperating solver group must
// produce identical answers, identical per-lane statistics and
// byte-identical, DRAT-valid proofs.
func TestDeterministicReplayIdenticalProofs(t *testing.T) {
	cnf := loadPHP(func(ds ...int) bool { return true }, 7, 6)
	a := runSharedPHP(t, 3, 42)
	b := runSharedPHP(t, 3, 42)

	for i := range a.status {
		if a.status[i] != sat.Unsat || b.status[i] != sat.Unsat {
			t.Fatalf("lane %d: statuses %v / %v, want Unsat", i, a.status[i], b.status[i])
		}
		if a.stats[i] != b.stats[i] {
			t.Fatalf("lane %d stats differ between replay runs:\n  %+v\n  %+v", i, a.stats[i], b.stats[i])
		}
		if !bytes.Equal(a.proofs[i], b.proofs[i]) {
			t.Fatalf("lane %d: proofs differ between replay runs (%d vs %d bytes)",
				i, len(a.proofs[i]), len(b.proofs[i]))
		}
		if err := sat.CheckDRAT(cnf, bytes.NewReader(a.proofs[i])); err != nil {
			t.Fatalf("lane %d: DRAT certificate rejected: %v", i, err)
		}
	}
	if a.share != b.share {
		t.Fatalf("exchange stats differ between replay runs:\n  %+v\n  %+v", a.share, b.share)
	}
	if a.share.Exported == 0 {
		t.Fatalf("no clauses exported; sharing never engaged: %+v", a.share)
	}
	// A different seed must change the trajectories (the diversification
	// sharing relies on).
	c := runSharedPHP(t, 3, 7)
	same := true
	for i := range a.stats {
		if a.stats[i] != c.stats[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 7 produced identical per-lane statistics; seeding has no effect")
	}
}
