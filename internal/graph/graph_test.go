package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// edgeList materializes a graph's edges via ForEachEdge — the test-side
// replacement for the removed Edges() accessor.
func edgeList(g *Graph) [][2]int {
	var out [][2]int
	g.ForEachEdge(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

func TestBasicOperations(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 1) // duplicate merged
	g := b.Freeze()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 4,2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(3))
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
	b.AddEdge(2, 3)
	if g.M() != 2 || g.Degree(3) != 0 {
		t.Fatal("Freeze result mutated by a later AddEdge")
	}
}

func TestNewIsEdgeless(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 || g.Degree(2) != 0 {
		t.Fatalf("New(3): N=%d M=%d", g.N(), g.M())
	}
	if es := edgeList(g); len(es) != 0 {
		t.Fatalf("edges = %v", es)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range vertex")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestForEachEdgeSortedAndComplete(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(3, 1)
	b.AddEdge(0, 4)
	b.AddEdge(2, 0)
	es := edgeList(b.Freeze())
	want := [][2]int{{0, 2}, {0, 4}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edges = %v, want %v", es, want)
		}
	}
}

func TestFromEdgeStreamMergesDuplicates(t *testing.T) {
	g := FromEdgeStream(4, func(emit func(u, v, d int)) {
		emit(0, 1, 1)
		emit(1, 0, 1) // same edge, flipped orientation
		emit(2, 3, 1)
		emit(2, 3, 1)
	})
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatalf("M=%d", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestFromEdgeStreamSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	FromEdgeStream(2, func(emit func(u, v, d int)) { emit(1, 1, 1) })
}

// TestFromEdgeStreamChangedStreamPanics checks that a stream whose
// second pass differs from its first panics instead of yielding a
// wrong graph, also when every vertex keeps its degree.
func TestFromEdgeStreamChangedStreamPanics(t *testing.T) {
	type e = weightedEdge
	cases := []struct {
		name          string
		first, second []e
	}{
		{"same degrees, other edges", []e{{0, 1, 1}, {2, 3, 1}}, []e{{0, 2, 1}, {1, 3, 1}}},
		{"extra edge", []e{{0, 1, 1}, {2, 3, 1}}, []e{{0, 1, 1}, {2, 3, 1}, {0, 1, 1}}},
		{"missing edge", []e{{0, 1, 1}, {2, 3, 1}}, []e{{0, 1, 1}}},
		{"other distance", []e{{0, 1, 1}, {2, 3, 2}}, []e{{0, 1, 2}, {2, 3, 2}}},
		{"distance 1 becomes 2", []e{{0, 1, 1}}, []e{{0, 1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "changed between passes") {
					t.Fatalf("recovered %v, want a changed-stream panic", r)
				}
			}()
			pass := 0
			FromEdgeStream(4, func(emit func(u, v, d int)) {
				edges := tc.first
				if pass++; pass == 2 {
					edges = tc.second
				}
				for _, ed := range edges {
					emit(ed.u, ed.v, ed.d)
				}
			})
		})
	}
}

func TestMaxDegreeAndNeighborSum(t *testing.T) {
	g := Complete(4)
	if g.MaxDegree() != 3 {
		t.Fatalf("K4 max degree = %d", g.MaxDegree())
	}
	if s := g.NeighborDegreeSum(0); s != 9 {
		t.Fatalf("K4 neighbor degree sum = %d, want 9", s)
	}
}

func TestGenerators(t *testing.T) {
	k := Complete(6)
	if k.M() != 15 {
		t.Fatalf("K6 edges = %d", k.M())
	}
	c := Cycle(7)
	if c.M() != 7 || c.MaxDegree() != 2 {
		t.Fatalf("C7: M=%d maxdeg=%d", c.M(), c.MaxDegree())
	}
	rng := rand.New(rand.NewSource(1))
	e := Random(rng, 30, 0)
	if e.M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	f := Random(rng, 30, 1)
	if f.M() != 30*29/2 {
		t.Fatalf("G(n,1) edges = %d", f.M())
	}
}

func TestBytesAccountsForCSRArrays(t *testing.T) {
	g := Complete(10) // 10 vertices, 45 edges -> 11 offsets + 90 neighbor slots
	if got, want := g.Bytes(), 4*(11+90); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestDIMACSRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 1
		p := float64(pRaw) / 255
		g := Random(rng, n, p)
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g, "test graph"); err != nil {
			return false
		}
		h, err := ParseDIMACS(&buf, MaxParseVertices)
		if err != nil {
			return false
		}
		if h.N() != g.N() || h.M() != g.M() {
			return false
		}
		ge, he := edgeList(g), edgeList(h)
		for i := range ge {
			if ge[i] != he[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",                    // edge before header
		"p edge x 1\n",               // bad count
		"p foo 2 1\n",                // wrong format
		"p edge 2 1\ne 1 3\n",        // vertex out of range
		"p edge 2 1\ne 1 1\n",        // self loop
		"p edge 2 1\ne 1\n",          // malformed edge
		"p edge 2 1\nz 1 2\n",        // unknown line
		"p edge 2 1\np edge 2 1\n",   // duplicate header
		"",                           // missing header
		"p edge 2 -1\n",              // negative edge count
		"p edge 2 1\n",               // fewer edges than declared
		"p edge 3 1\ne 1 2\ne 2 3\n", // more edges than declared
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in), MaxParseVertices); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestParseDIMACSHugeHeaderRejected is the OOM-by-header regression
// test: a header declaring a billion vertices must fail fast instead of
// committing the adjacency for it.
func TestParseDIMACSHugeHeaderRejected(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("p edge 1000000000 0\n"), MaxParseVertices)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want vertex-count limit error", err)
	}
}

func TestParseDIMACSEdgeCountMismatch(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("p edge 3 2\ne 1 2\n"), MaxParseVertices)
	if err == nil || !strings.Contains(err.Error(), "declared 2 edges") {
		t.Fatalf("err = %v, want declared-edge-count mismatch", err)
	}
}

func TestParseDIMACSSkipsNLines(t *testing.T) {
	in := "c hello\np edge 3 1\nn 1 5\ne 1 2\n"
	g, err := ParseDIMACS(strings.NewReader(in), MaxParseVertices)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestNeighborDegreeSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		g := Random(rng, 2+rng.Intn(20), rng.Float64())
		for v := 0; v < g.N(); v++ {
			sum := 0
			for _, u := range g.Neighbors(v) {
				sum += g.Degree(int(u))
			}
			if got := g.NeighborDegreeSum(v); got != sum {
				t.Fatalf("vertex %d: NeighborDegreeSum=%d, manual=%d", v, got, sum)
			}
		}
	}
}

func TestParseDIMACSNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []byte("pe col dge0123456789 -\nc")
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		// Must not panic; errors are fine.
		ParseDIMACS(bytes.NewReader(buf), MaxParseVertices)
	}
}

type limitedWriter struct{ left int }

func (w *limitedWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errShort
	}
	w.left -= len(p)
	return len(p), nil
}

var errShort = fmt.Errorf("simulated short write")

func TestWriteDIMACSPropagatesErrors(t *testing.T) {
	g := Complete(20)
	if err := WriteDIMACS(&limitedWriter{left: 10}, g, "header comment"); err == nil {
		t.Fatal("short write not reported")
	}
}
