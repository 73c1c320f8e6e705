package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// weightedEdge is an (u, v, d) triple for order-insensitive comparisons.
type weightedEdge struct{ u, v, d int }

func weightedEdgeList(g *Graph) []weightedEdge {
	var out []weightedEdge
	g.ForEachWeightedEdge(func(u, v, d int) {
		out = append(out, weightedEdge{u, v, d})
	})
	return out
}

func TestBuilderWeightedMerge(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddEdge(0, 1)            // re-add at distance 1: larger kept
	b.AddWeightedEdge(1, 0, 5) // larger distance wins
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(1, 2, 2) // smaller distance ignored
	g := b.Freeze()
	if !g.Weighted() {
		t.Fatal("graph with distances >= 2 must be weighted")
	}
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2", g.M())
	}
	if w := g.EdgeWeight(0, 1); w != 5 {
		t.Fatalf("EdgeWeight(0,1)=%d, want 5", w)
	}
	if w := g.EdgeWeight(1, 2); w != 3 {
		t.Fatalf("EdgeWeight(1,2)=%d, want 3", w)
	}
	if w := g.EdgeWeight(0, 2); w != 0 {
		t.Fatalf("EdgeWeight(0,2)=%d on a non-edge, want 0", w)
	}
	if mw := g.MaxEdgeWeight(); mw != 5 {
		t.Fatalf("MaxEdgeWeight=%d, want 5", mw)
	}
	got := weightedEdgeList(g)
	want := []weightedEdge{{0, 1, 5}, {1, 2, 3}}
	if len(got) != len(want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges %v, want %v", got, want)
		}
	}
}

func TestUnweightedAccessors(t *testing.T) {
	g := Complete(4)
	if g.Weighted() {
		t.Fatal("Complete graphs are unweighted")
	}
	if w := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("EdgeWeight on unweighted edge = %d, want 1", w)
	}
	if mw := g.MaxEdgeWeight(); mw != 1 {
		t.Fatalf("MaxEdgeWeight=%d, want 1", mw)
	}
	sum := 0
	g.ForEachWeightedEdge(func(u, v, d int) { sum += d })
	if sum != g.M() {
		t.Fatalf("weighted iteration over unweighted graph summed %d, want %d", sum, g.M())
	}
}

// TestFromWeightedEdgeStreamMatchesBuilder checks weighted graphs,
// streamed and built, against the map-based reference: repeated edges
// with differing distances must merge to the larger one, and a stream
// whose distances are all 1 must yield the unweighted form.
func TestFromWeightedEdgeStreamMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		maxD := 1 + trial%4 // every fourth trial is all distance 1
		var edges []weightedEdge
		ref := newRef(n)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e := weightedEdge{u, v, 1 + rng.Intn(maxD)}
			edges = append(edges, e)
			if rng.Intn(3) == 0 { // a repeat, flipped, at another distance
				edges = append(edges, weightedEdge{v, u, 1 + rng.Intn(maxD)})
			}
		}
		for _, e := range edges {
			ref.addEdge(e.u, e.v, e.d)
			b.AddWeightedEdge(e.u, e.v, e.d)
		}
		g := FromEdgeStream(n, func(emit func(u, v, d int)) {
			for _, e := range edges {
				emit(e.u, e.v, e.d)
			}
		})
		checkAgainstRef(t, g, ref)
		checkAgainstRef(t, b.Freeze(), ref)
	}
}

// TestWeightedCloneAndBytes checks that Bytes counts the weight array
// and that freezing a builder again yields a copy that shares no
// storage with the first graph.
func TestWeightedCloneAndBytes(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g := b.Freeze()
	unweightedBytes := 4 * ((g.N() + 1) + 2*g.M())
	if g.Bytes() != unweightedBytes+4*2*g.M() {
		t.Fatalf("Bytes=%d does not account for the weight array", g.Bytes())
	}
	c := b.Freeze()
	c.neighbors[0], c.weights[0] = 2, 9
	if !g.Weighted() || g.neighbors[0] != 1 || g.EdgeWeight(1, 2) != 3 || g.EdgeWeight(0, 1) != 2 {
		t.Fatal("a second Freeze shares storage with the first")
	}
}

func TestWeightedDIMACSRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 7)
	g := b.Freeze()
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g, "weighted round trip"); err != nil {
		t.Fatal(err)
	}
	h, err := ParseDIMACS(strings.NewReader(buf.String()), MaxParseVertices)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !h.Weighted() || h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed shape: %v", buf.String())
	}
	lg, lh := weightedEdgeList(g), weightedEdgeList(h)
	for i := range lg {
		if lg[i] != lh[i] {
			t.Fatalf("edge %d: %v -> %v", i, lg[i], lh[i])
		}
	}
}

func TestParseWeightedDIMACSValidation(t *testing.T) {
	cases := []string{
		"p edge 3 1\ne 1 2 0\n",          // distance < 1
		"p edge 3 1\ne 1 2 -4\n",         // negative distance
		"p edge 3 1\ne 1 2 x\n",          // non-numeric distance
		"p edge 3 1\ne 1 2 2000000\n",    // beyond MaxParseDistance
		"p edge 3 1\ne 1 2 3 9\n",        // too many fields
		"p edge 3 2\ne 1 2 2\ne 1 2 2\n", // duplicates count as lines but merge
	}
	for _, src := range cases[:5] {
		if _, err := ParseDIMACS(strings.NewReader(src), MaxParseVertices); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	g, err := ParseDIMACS(strings.NewReader(cases[5]), MaxParseVertices)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.EdgeWeight(0, 1) != 2 {
		t.Fatalf("duplicate weighted edges mishandled: M=%d w=%d", g.M(), g.EdgeWeight(0, 1))
	}
	// All-1 explicit distances parse to the unweighted normal form.
	g, err = ParseDIMACS(strings.NewReader("p edge 3 2\ne 1 2 1\ne 2 3 1\n"), MaxParseVertices)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("all-1 distances must normalize to unweighted")
	}
}
