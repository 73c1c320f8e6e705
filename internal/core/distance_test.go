package core

import (
	"context"
	"testing"

	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
)

// weightedTestGraphs builds the small bandwidth-coloring instances the
// brute-force cross-checks run on: every shape exercises a different
// emission path (mixed distances, singleton windows clipped at domain
// boundaries, distance larger than the domain, merged parallel edges).
func weightedTestGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}

	tri := graph.NewBuilder(3)
	tri.AddWeightedEdge(0, 1, 2)
	tri.AddWeightedEdge(1, 2, 2)
	tri.AddWeightedEdge(0, 2, 1)
	out["triangle-d2"] = tri.Freeze()

	path := graph.NewBuilder(5)
	path.AddWeightedEdge(0, 1, 3)
	path.AddWeightedEdge(1, 2, 1)
	path.AddWeightedEdge(2, 3, 2)
	path.AddWeightedEdge(3, 4, 4)
	out["path-mixed"] = path.Freeze()

	star := graph.NewBuilder(5)
	for leaf := 1; leaf < 5; leaf++ {
		star.AddWeightedEdge(0, leaf, leaf)
	}
	out["star-1234"] = star.Freeze()

	// Parallel edges merge keeping the larger distance.
	par := graph.NewBuilder(4)
	par.AddWeightedEdge(0, 1, 1)
	par.AddWeightedEdge(1, 0, 3)
	par.AddWeightedEdge(1, 2, 2)
	par.AddWeightedEdge(2, 3, 2)
	par.AddWeightedEdge(0, 3, 2)
	out["cycle-merged"] = par.Freeze()

	// A clique with uniform spacing 2: min span is 2*(n-1)+1 colors.
	k4 := graph.FromEdgeStream(4, func(emit func(u, v, d int)) {
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				emit(u, v, 2)
			}
		}
	})
	out["k4-d2"] = k4

	return out
}

// bruteForceSolvable enumerates every assignment of k colors and
// reports whether one satisfies all distance constraints.
func bruteForceSolvable(g *graph.Graph, k int) bool {
	n := g.N()
	colors := make([]int, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			for _, u := range g.Neighbors(v) {
				if int(u) < v {
					diff := colors[u] - c
					if diff < 0 {
						diff = -diff
					}
					if diff < g.EdgeWeight(v, int(u)) {
						ok = false
						break
					}
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}

var distanceTestEncodings = []string{"order", "ladder", "direct", "log", "muldirect", "ITE-log", "ITE-linear-2+muldirect"}

// TestDistanceEncodingsBruteForce cross-checks every distance-capable
// encoding against brute-force enumeration on small weighted graphs:
// the SAT formula must be satisfiable exactly when a bandwidth coloring
// exists, and every decoded solution must verify against the distance
// constraints.
func TestDistanceEncodingsBruteForce(t *testing.T) {
	for gname, g := range weightedTestGraphs() {
		if !g.Weighted() {
			t.Fatalf("%s: test graph lost its weights", gname)
		}
		for k := 1; k <= 8; k++ {
			want := bruteForceSolvable(g, k)
			for _, ename := range distanceTestEncodings {
				enc, err := ByName(ename)
				if err != nil {
					t.Fatal(err)
				}
				e := Encode(NewCSP(g, k), enc)
				st, colors, err := solveEncoded(e)
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", gname, ename, k, err)
				}
				if want && st != sat.Sat {
					t.Errorf("%s/%s k=%d: got %v, brute force says solvable", gname, ename, k, st)
				}
				if !want && st != sat.Unsat {
					t.Errorf("%s/%s k=%d: got %v, brute force says unsolvable", gname, ename, k, st)
				}
				if st == sat.Sat {
					if err := NewCSP(g, k).Verify(colors); err != nil {
						t.Errorf("%s/%s k=%d: decoded solution invalid: %v", gname, ename, k, err)
					}
				}
			}
		}
	}
}

// TestDistanceIncrementalMatchesFresh proves the selector staircase is
// sound on weighted CSPs: probing width w on one incremental encode
// must decide exactly like a fresh single-shot encode at width w, for
// the order encoding (native guards) and a cube encoding (generic
// guards).
func TestDistanceIncrementalMatchesFresh(t *testing.T) {
	for gname, g := range weightedTestGraphs() {
		for _, ename := range []string{"order", "direct", "log"} {
			enc, err := ByName(ename)
			if err != nil {
				t.Fatal(err)
			}
			hi := 9
			solver := sat.New(sat.Options{})
			inc := EncodeIncremental(NewCSP(g, hi), enc, 1, sat.SolverSink{S: solver})
			for w := 1; w <= hi; w++ {
				assumps, err := inc.Assumptions(w)
				if err != nil {
					t.Fatal(err)
				}
				st := solver.Solve(context.Background(), assumps...)
				fresh := Encode(NewCSP(g, w), enc)
				fst, _, err := solveEncoded(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if st != fst {
					t.Errorf("%s/%s w=%d: incremental %v, fresh %v", gname, ename, w, st, fst)
				}
				if st == sat.Sat {
					if _, err := inc.DecodeVerifyWidth(solver.Model(), w); err != nil {
						t.Errorf("%s/%s w=%d: %v", gname, ename, w, err)
					}
				}
			}
		}
	}
}

// TestOrderEncodingShape pins the order encoding's variable and clause
// scheme: d-1 order variables, d-2 ladder clauses, and the documented
// value cubes.
func TestOrderEncodingShape(t *testing.T) {
	enc := NewOrder()
	for d := 1; d <= 6; d++ {
		cubes, vars, err := DescribeVariable(enc, d)
		if err != nil {
			t.Fatal(err)
		}
		if wantVars := d - 1; d > 1 && vars != wantVars {
			t.Fatalf("d=%d: %d vars, want %d", d, vars, wantVars)
		}
		if len(cubes) != d {
			t.Fatalf("d=%d: %d cubes", d, len(cubes))
		}
		// Exactly one cube true under every ladder-respecting assignment.
		for val := 0; val < d; val++ {
			model := make([]bool, vars)
			for i := 0; i < val; i++ {
				model[i] = true // ge[1..val] true
			}
			selected := -1
			for c, cube := range cubes {
				if cube.Eval(model) {
					if selected >= 0 {
						t.Fatalf("d=%d val=%d: cubes %d and %d both true", d, val, selected, c)
					}
					selected = c
				}
			}
			if selected != val {
				t.Fatalf("d=%d: assignment for value %d decodes as %d", d, val, selected)
			}
		}
	}
	if enc.Multivalued() {
		t.Fatal("order encoding is not multivalued")
	}
	if enc.Name() != "order" {
		t.Fatalf("name %q", enc.Name())
	}
	ladder, err := ByName("ladder")
	if err != nil || ladder.Name() != "order" {
		t.Fatalf("ladder alias: %v %v", ladder, err)
	}
}

// TestWeightedStreamMatchesUnweightedOnD1 proves the distance-1 normal
// form end-to-end: building a graph with all distances 1, streamed or
// through a Builder's AddWeightedEdge, yields an unweighted graph, so
// the encoder takes the exact pre-distance path (the one pinned by
// TestPinnedClauseStreams).
func TestWeightedStreamMatchesUnweightedOnD1(t *testing.T) {
	g := graph.FromEdgeStream(6, func(emit func(u, v, d int)) {
		emit(0, 1, 1)
		emit(1, 2, 1)
		emit(2, 3, 1)
		emit(3, 4, 1)
		emit(4, 5, 1)
		emit(0, 5, 1)
		emit(0, 3, 1)
	})
	if g.Weighted() {
		t.Fatal("all-1 weighted stream did not normalize to unweighted")
	}
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(2, 3, 1)
	if b.Freeze().Weighted() {
		t.Fatal("all-1 builder did not normalize to unweighted")
	}
}

// TestOrderIntervalClauseCount pins the size advantage that motivates
// the order encoding: an edge with distance d costs min(du,dv) interval
// clauses regardless of d, where the pairwise form grows with d.
func TestOrderIntervalClauseCount(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		g := graph.NewBuilder(2)
		g.AddWeightedEdge(0, 1, d)
		gw := g.Freeze()
		k := 8
		order := Encode(NewCSP(gw, k), mustByName(t, "order"))
		direct := Encode(NewCSP(gw, k), mustByName(t, "direct"))
		if order.ConflictClauses != k {
			t.Errorf("d=%d: order emitted %d conflict clauses, want %d", d, order.ConflictClauses, k)
		}
		wantPairwise := 0
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if diff := a - b; diff > -d && diff < d {
					wantPairwise++
				}
			}
		}
		if direct.ConflictClauses != wantPairwise {
			t.Errorf("d=%d: direct emitted %d conflict clauses, want %d", d, direct.ConflictClauses, wantPairwise)
		}
	}
}

func mustByName(t *testing.T, name string) Encoding {
	t.Helper()
	enc, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestWeightedSkipsSymmetry: clique-prefix domain restrictions are
// unsound under distance constraints, so BuildCSP must ignore the
// heuristic on weighted graphs.
func TestWeightedSkipsSymmetry(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 2)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(2, 3, 2)
	g := b.Freeze()
	csp := BuildCSP(g, 6, "s1")
	for v, d := range csp.Domain {
		if d != 6 {
			t.Fatalf("vertex %d domain restricted to %d on a weighted graph", v, d)
		}
	}
	// And the restriction really would be unsound: K4-free triangle with
	// spacing 2 needs colors {0,2,4} on the triangle in some order; a
	// prefix restriction to {0} / {0,1} / {0,1,2} cuts all solutions.
	csp.ApplySequence([]int{0, 1, 2})
	e := Encode(csp, mustByName(t, "order"))
	st, _, err := solveEncoded(e)
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Unsat {
		t.Fatalf("prefix-restricted triangle-d2 at k=6: %v, want Unsat (demonstrating unsoundness)", st)
	}
	if !bruteForceSolvable(g, 6) {
		t.Fatal("triangle-d2 should be solvable at k=6")
	}
}
