package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// refGraph is a map-based reference implementation of the Graph
// semantics with edge distances: re-adding an edge keeps the larger
// distance. Graphs built by FromEdgeStream, directly or through a
// Builder, must agree with it on every accessor — the behavioral
// equivalence property the CSR form rests on.
type refGraph struct {
	n   int
	adj []map[int]int // neighbor -> distance
}

func newRef(n int) *refGraph {
	adj := make([]map[int]int, n)
	for i := range adj {
		adj[i] = map[int]int{}
	}
	return &refGraph{n: n, adj: adj}
}

func (r *refGraph) addEdge(u, v, d int) {
	if d > r.adj[u][v] {
		r.adj[u][v] = d
		r.adj[v][u] = d
	}
}

func (r *refGraph) m() int {
	total := 0
	for _, row := range r.adj {
		total += len(row)
	}
	return total / 2
}

func (r *refGraph) neighbors(v int) []int {
	out := make([]int, 0, len(r.adj[v]))
	for u := range r.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// edges lists every edge as (u, v, d) with u < v, in ascending (u, v)
// order.
func (r *refGraph) edges() []weightedEdge {
	var out []weightedEdge
	for u := 0; u < r.n; u++ {
		for _, v := range r.neighbors(u) {
			if u < v {
				out = append(out, weightedEdge{u, v, r.adj[u][v]})
			}
		}
	}
	return out
}

func (r *refGraph) maxDegree() int {
	max := 0
	for _, row := range r.adj {
		if len(row) > max {
			max = len(row)
		}
	}
	return max
}

func (r *refGraph) maxDistance() int {
	max := 0
	for _, row := range r.adj {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

func (r *refGraph) neighborDegreeSum(v int) int {
	sum := 0
	for u := range r.adj[v] {
		sum += len(r.adj[u])
	}
	return sum
}

// checkAgainstRef asserts that g matches the reference on every
// accessor of the Graph API.
func checkAgainstRef(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	if g.N() != ref.n || g.M() != ref.m() {
		t.Fatalf("N/M = %d/%d, want %d/%d", g.N(), g.M(), ref.n, ref.m())
	}
	if g.MaxDegree() != ref.maxDegree() {
		t.Fatalf("MaxDegree = %d, want %d", g.MaxDegree(), ref.maxDegree())
	}
	// The distance-1 normal form: a weight array exactly when some
	// distance is 2 or more.
	if g.MaxEdgeWeight() != ref.maxDistance() || g.Weighted() != (ref.maxDistance() > 1) {
		t.Fatalf("MaxEdgeWeight/Weighted = %d/%v, want %d", g.MaxEdgeWeight(), g.Weighted(), ref.maxDistance())
	}
	for v := 0; v < ref.n; v++ {
		want := ref.neighbors(v)
		got := g.Neighbors(v)
		if g.Degree(v) != len(want) || len(got) != len(want) {
			t.Fatalf("vertex %d: degree %d, want %d", v, g.Degree(v), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
			}
		}
		if g.NeighborDegreeSum(v) != ref.neighborDegreeSum(v) {
			t.Fatalf("NeighborDegreeSum(%d) = %d, want %d",
				v, g.NeighborDegreeSum(v), ref.neighborDegreeSum(v))
		}
		for u := 0; u < ref.n; u++ {
			d := ref.adj[v][u]
			if g.HasEdge(v, u) != (d > 0) || g.EdgeWeight(v, u) != d {
				t.Fatalf("HasEdge/EdgeWeight(%d,%d) = %v/%d, want distance %d",
					v, u, g.HasEdge(v, u), g.EdgeWeight(v, u), d)
			}
		}
	}
	gotEdges, gotWeighted, wantEdges := edgeList(g), weightedEdgeList(g), ref.edges()
	if len(gotEdges) != len(wantEdges) || len(gotWeighted) != len(wantEdges) {
		t.Fatalf("ForEachEdge/ForEachWeightedEdge yielded %d/%d edges, want %d",
			len(gotEdges), len(gotWeighted), len(wantEdges))
	}
	for i, want := range wantEdges {
		if gotWeighted[i] != want || gotEdges[i] != [2]int{want.u, want.v} {
			t.Fatalf("edge %d = %v/%v, want %v (order must be ascending (u,v))",
				i, gotEdges[i], gotWeighted[i], want)
		}
	}
}

// TestCSRMatchesBuilderReference drives a Builder and the map-based
// reference with the same random edge sequence (including duplicate
// insertions) and checks the frozen CSR graph is behaviorally identical
// on N/M/Degree/HasEdge/Neighbors/ForEachEdge/MaxDegree/
// NeighborDegreeSum, plus the DIMACS round-trip.
func TestCSRMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		ref := newRef(n)
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			ref.addEdge(u, v, 1)
			if rng.Intn(4) == 0 { // duplicate insertions must merge
				b.AddEdge(v, u)
			}
		}
		g := b.Freeze()
		checkAgainstRef(t, g, ref)

		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ParseDIMACS(&buf, MaxParseVertices)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, h, ref)
	}
}

// TestFromEdgeStreamMatchesBuilder checks the two-pass streaming
// constructor and the Builder agree on identical edge sets.
func TestFromEdgeStreamMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		var edges [][2]int
		ref := newRef(n)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [2]int{u, v}) // may repeat: stream must dedup
			ref.addEdge(u, v, 1)
			b.AddEdge(u, v)
		}
		g := FromEdgeStream(n, func(emit func(u, v, d int)) {
			for _, e := range edges {
				emit(e[0], e[1], 1)
			}
		})
		checkAgainstRef(t, g, ref)
		checkAgainstRef(t, b.Freeze(), ref)
	}
}

// TestBuilderLazyAdjacency checks that a builder with a huge declared
// vertex count commits storage proportional to its edges, 12 bytes
// each, and nothing per declared vertex — the property the DIMACS
// parser relies on to close its OOM-by-header hole.
func TestBuilderLazyAdjacency(t *testing.T) {
	const n, edges = 1 << 30, 1000
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddWeightedEdge(i, n-1-i, 1+i%3)
	}
	if size := unsafe.Sizeof(builderEdge{}); size != 12 {
		t.Fatalf("an edge costs %d bytes, want 12", size)
	}
	if b.N() != n || len(b.edges) != edges || cap(b.edges) > 2*edges {
		t.Fatalf("builder for %d vertices holds %d edges in capacity %d after %d AddWeightedEdge calls",
			b.N(), len(b.edges), cap(b.edges), edges)
	}
}

// TestParseDIMACSHeaderCostsOnlyOffsets checks that an edgeless graph
// with a large declared vertex count costs its CSR offsets and no other
// per-vertex storage: no cursor array, and no allocation per row while
// rows are sorted.
func TestParseDIMACSHeaderCostsOnlyOffsets(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ParseDIMACS(strings.NewReader(fmt.Sprintf("p edge %d 0\n", n)), MaxParseVertices)
	runtime.ReadMemStats(&after)
	if err != nil || g.N() != n {
		t.Fatalf("ParseDIMACS: %v", err)
	}
	offsets := uint64(4 * (n + 1))
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d bytes in %d allocations for %d declared vertices", bytes, allocs, n)
	if bytes > offsets+1<<18 || allocs > 64 {
		t.Fatalf("%d bytes in %d allocations for %d declared vertices, want about %d bytes (the offsets)",
			bytes, allocs, n, offsets)
	}
}
