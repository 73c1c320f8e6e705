package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fpgasat/internal/graph"
)

// recordSink copies every streamed clause, preserving order.
type recordSink struct{ clauses [][]int }

func (s *recordSink) AddClause(lits ...int) {
	s.clauses = append(s.clauses, append([]int(nil), lits...))
}

// TestEncodeClauseStreamMatchesEdgeListReference pins the conflict
// half of every encoder's clause stream to a reference built from a
// materialized edge list — the semantics of the pre-CSR Edges() loop.
// The CSR ForEachEdge migration must keep the stream identical, clause
// by clause and literal by literal, or DIMACS outputs and solver replay
// determinism silently drift.
func TestEncodeClauseStreamMatchesEdgeListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 6 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Freeze()
		var edges [][2]int
		g.ForEachEdge(func(u, v int) { edges = append(edges, [2]int{u, v}) })
		k := 3 + rng.Intn(4)
		for _, name := range PaperEncodingNames {
			enc, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			csp := NewCSP(g, k)
			sink := &recordSink{}
			st := EncodeInto(csp, enc, sink)
			total := st.StructuralClauses + st.ConflictClauses
			if len(sink.clauses) != total {
				t.Fatalf("%s: sink saw %d clauses, census says %d", name, len(sink.clauses), total)
			}
			// Reference conflict stream: ascending (u,v) edge order,
			// common domain values in order, negated u-cube then v-cube.
			var want [][]int
			for _, e := range edges {
				u, v := e[0], e[1]
				common := csp.Domain[u]
				if csp.Domain[v] < common {
					common = csp.Domain[v]
				}
				for c := 0; c < common; c++ {
					cl := st.Cube(u, c).AppendNegated(nil)
					cl = st.Cube(v, c).AppendNegated(cl)
					want = append(want, cl)
				}
			}
			got := sink.clauses[st.StructuralClauses:]
			if len(got) != len(want) {
				t.Fatalf("%s: %d conflict clauses, want %d", name, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s: conflict clause %d = %v, want %v", name, i, got[i], want[i])
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s: conflict clause %d = %v, want %v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEncodeIdenticalAcrossConstruction checks that the construction
// path (Builder vs FromEdgeStream, insertion order, duplicates) leaves
// no trace in the clause stream: equal edge sets yield byte-identical
// encodings.
func TestEncodeIdenticalAcrossConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 12
	var edges [][2]int
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g1 := b.Freeze()
	g2 := graph.FromEdgeStream(n, func(emit func(u, v, d int)) {
		for i := len(edges) - 1; i >= 0; i-- { // reversed + duplicated
			emit(edges[i][1], edges[i][0], 1)
			emit(edges[i][0], edges[i][1], 1)
		}
	})
	enc, err := ByName("ITE-linear-2+muldirect")
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := &recordSink{}, &recordSink{}
	EncodeInto(NewCSP(g1, 4), enc, s1)
	EncodeInto(NewCSP(g2, 4), enc, s2)
	if len(s1.clauses) != len(s2.clauses) {
		t.Fatalf("clause counts differ: %d vs %d", len(s1.clauses), len(s2.clauses))
	}
	for i := range s1.clauses {
		if len(s1.clauses[i]) != len(s2.clauses[i]) {
			t.Fatalf("clause %d differs: %v vs %v", i, s1.clauses[i], s2.clauses[i])
		}
		for j := range s1.clauses[i] {
			if s1.clauses[i][j] != s2.clauses[i][j] {
				t.Fatalf("clause %d differs: %v vs %v", i, s1.clauses[i], s2.clauses[i])
			}
		}
	}
}

// censusSink records the order of the optional sink calls, the clauses
// a Census replay emits and the clauses streamed after it.
type censusSink struct {
	recordSink
	calls  []string
	replay [][]int
}

func (s *censusSink) DeclareVars(n int) { s.calls = append(s.calls, "declare") }

func (s *censusSink) Census(replay func(count func(lits ...int))) {
	s.calls = append(s.calls, "census")
	if len(s.clauses) != 0 {
		s.calls = append(s.calls, "census after a clause")
	}
	replay(func(lits ...int) { s.replay = append(s.replay, append([]int(nil), lits...)) })
}

// TestCensusReplaysTheStream: a sink with a Census method gets the
// variable count, then one replay, then the clauses, and the replay
// emits exactly the clauses that follow, selector chain and guards of an
// incremental encode included, so a solver can size its implication
// lists from it. Covers every paper encoding and order, on plain and
// weighted graphs, single-shot and incremental.
func TestCensusReplaysTheStream(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type formula struct {
		name string
		g    *graph.Graph
		k    int
		encs []Encoding
	}
	plain := append(PaperEncodings(), NewOrder())
	formulas := []formula{{"random", graph.Random(rng, 14, 0.4), 5, plain}}
	var weighted []Encoding
	for _, name := range BandwidthEncodingNames {
		weighted = append(weighted, mustByName(t, name))
	}
	for name, g := range weightedTestGraphs() {
		formulas = append(formulas, formula{name, g, 7, weighted})
	}
	for _, f := range formulas {
		for _, enc := range f.encs {
			csp := NewCSP(f.g, f.k)
			for _, incremental := range []bool{false, true} {
				sink := &censusSink{}
				if incremental {
					EncodeIncremental(csp, enc, 2, sink)
				} else {
					EncodeInto(csp, enc, sink)
				}
				name := fmt.Sprintf("%s/%s incremental=%v", f.name, enc.Name(), incremental)
				if got := strings.Join(sink.calls, ", "); got != "declare, census" {
					t.Fatalf("%s: sink calls %q, want \"declare, census\"", name, got)
				}
				if !reflect.DeepEqual(sink.replay, sink.clauses) {
					t.Fatalf("%s: replay of %d clauses differs from the %d streamed",
						name, len(sink.replay), len(sink.clauses))
				}
			}
		}
	}
}
