// Package graph provides the undirected graphs that sit between the
// FPGA detailed-routing front end and the CSP-to-SAT encoders: vertices
// are 2-pin nets, edges are track-exclusivity constraints, and the
// DIMACS edge ("p edge", .col) format is the interchange format the
// paper's tool flow emits between its two translation steps.
//
// The package separates construction from consumption. Every graph is
// built by one constructor, FromEdgeStream, which turns a replayable
// edge stream into an immutable Graph in compressed sparse row (CSR)
// form: two flat int32 arrays (offsets, neighbors) that give O(1)
// Degree, allocation-free sorted Neighbors and a streaming ForEachEdge
// iterator. A Builder is a plain edge list that Freeze()s through it.
// Consumers never materialize an edge list, which keeps the encode path
// allocation-light and lets tile-templated generators (package fpga)
// stream conflict graphs with 10⁵–10⁶ nets straight into the encoders.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph over vertices 0..N-1 in
// CSR form. Self-loops and parallel edges cannot occur (FromEdgeStream
// rejects the one and merges the other). Build one with FromEdgeStream,
// (*Builder).Freeze, or the generators in this package.
//
// Edges optionally carry an integer distance weight d >= 1 (bandwidth
// coloring: adjacent colors must differ by at least d). The weights
// live in a third flat int32 array parallel to the neighbor array, so a
// weighted graph costs exactly one extra int32 per directed edge and
// nothing at all when every weight is 1: FromEdgeStream allocates the
// weight array only for a stream with some distance >= 2, keeping
// classic disequality instances on the exact representation they had
// before distance constraints existed.
type Graph struct {
	// offsets has length n+1; the neighbors of v are
	// neighbors[offsets[v]:offsets[v+1]], sorted ascending. Each
	// undirected edge appears twice, so len(neighbors) == 2*m.
	offsets   []int32
	neighbors []int32
	// weights is nil for unweighted graphs; otherwise weights[i] is the
	// distance of the edge to neighbors[i] (>= 1, stored symmetrically).
	weights []int32
	m       int
}

// New creates an immutable graph with n isolated vertices (the CSR form
// of the empty edge set). To build a graph with edges, use
// FromEdgeStream or a Builder.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{offsets: make([]int32, n+1)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v in O(1).
func (g *Graph) Degree(v int) int {
	g.check(v)
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v as a sub-slice of the
// CSR neighbor array — no allocation. The slice aliases the graph's
// internal storage and MUST NOT be modified; callers that need to
// reorder it must copy first.
func (g *Graph) Neighbors(v int) []int32 {
	g.check(v)
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, by binary search over the
// smaller of the two neighbor rows.
func (g *Graph) HasEdge(u, v int) bool {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row := g.Neighbors(u)
	t := int32(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= t })
	return i < len(row) && row[i] == t
}

// ForEachEdge calls f once per edge as an ordered pair (u < v), in
// ascending (u, v) order — the same canonical order the DIMACS writer
// and the encoders rely on. It allocates nothing; this is the streaming
// replacement for materializing an edge list on hot paths.
func (g *Graph) ForEachEdge(f func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		row := g.neighbors[g.offsets[u]:g.offsets[u+1]]
		// Rows are sorted, so the first neighbor > u starts the
		// unordered-pair half of the row.
		i := sort.Search(len(row), func(i int) bool { return int(row[i]) > u })
		for _, v := range row[i:] {
			f(u, int(v))
		}
	}
}

// Weighted reports whether any edge carries a distance weight >= 2.
// FromEdgeStream keeps all-1 weight sets in the unweighted form, so
// this is equivalent to "the graph has a non-trivial distance
// constraint".
func (g *Graph) Weighted() bool { return g.weights != nil }

// EdgeWeight returns the distance weight of edge {u,v}: 1 for edges of
// an unweighted graph, 0 when {u,v} is not an edge.
func (g *Graph) EdgeWeight(u, v int) int {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return 0
	}
	row := g.neighbors[g.offsets[u]:g.offsets[u+1]]
	t := int32(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= t })
	if i >= len(row) || row[i] != t {
		return 0
	}
	if g.weights == nil {
		return 1
	}
	return int(g.weights[int(g.offsets[u])+i])
}

// ForEachWeightedEdge calls f once per edge as (u, v, d) with u < v, in
// the same canonical ascending order as ForEachEdge; d is the edge's
// distance weight (1 everywhere on unweighted graphs). Allocates
// nothing.
func (g *Graph) ForEachWeightedEdge(f func(u, v, d int)) {
	for u := 0; u < g.N(); u++ {
		start := int(g.offsets[u])
		row := g.neighbors[start:g.offsets[u+1]]
		i := sort.Search(len(row), func(i int) bool { return int(row[i]) > u })
		for j := i; j < len(row); j++ {
			d := 1
			if g.weights != nil {
				d = int(g.weights[start+j])
			}
			f(u, int(row[j]), d)
		}
	}
}

// MaxEdgeWeight returns the largest edge distance (1 for non-empty
// unweighted graphs, 0 for edgeless graphs).
func (g *Graph) MaxEdgeWeight() int {
	if g.m == 0 {
		return 0
	}
	if g.weights == nil {
		return 1
	}
	max := int32(1)
	for _, w := range g.weights {
		if w > max {
			max = w
		}
	}
	return int(max)
}

// MaxDegree returns the largest vertex degree, 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := int(g.offsets[v+1] - g.offsets[v]); d > max {
			max = d
		}
	}
	return max
}

// NeighborDegreeSum returns the sum of the degrees of v's neighbors,
// the tie-breaking key used by the b1 and s1 symmetry heuristics.
func (g *Graph) NeighborDegreeSum(v int) int {
	g.check(v)
	sum := 0
	for _, u := range g.Neighbors(v) {
		sum += int(g.offsets[u+1] - g.offsets[u])
	}
	return sum
}

// Bytes returns the memory footprint of the CSR representation in
// bytes (offsets plus neighbors plus weights). This is the "peak graph
// bytes" number the scaling study records.
func (g *Graph) Bytes() int {
	return 4 * (len(g.offsets) + len(g.neighbors) + len(g.weights))
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.N() {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.N()))
	}
}

// FromEdgeStream builds a CSR graph from a deterministic edge stream;
// it is the one constructor every graph goes through. stream is invoked
// twice with an emit callback and must yield the same edges both times:
// the first pass counts degrees, the second fills the rows. Each
// undirected edge is emitted once in either orientation with a distance
// d >= 1 (bandwidth coloring: |c(u)-c(v)| >= d; d = 1 is the classic
// disequality edge). Duplicates are merged keeping the largest distance
// (the tighter constraint). The weight array exists only when some edge
// has d >= 2, so a distance-1 stream yields the plain unweighted graph
// (the distance-1 normal form). Self-loops, out-of-range vertices,
// invalid distances and a stream that changes between its passes
// panic. Beyond the CSR arrays it allocates nothing per vertex or edge,
// which is what lets tile-templated generators stream million-net
// conflict graphs straight into CSR form.
func FromEdgeStream(n int, stream func(emit func(u, v, d int))) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d vertices exceed the CSR int32 id space", n))
	}
	// offsets[v] counts v's edge ends, then holds the end of v's row.
	// The fill pass writes each row backwards from its end, which leaves
	// offsets[v] at the row's start without a separate cursor array.
	// The passes are compared by an order-independent hash of their
	// edges: the first adds each edge's hash, the second subtracts it.
	offsets := make([]int32, n+1)
	weighted := false
	var sum uint64
	stream(func(u, v, d int) {
		checkEdge(n, u, v, d)
		offsets[u]++
		offsets[v]++
		weighted = weighted || d > 1
		sum += edgeHash(u, v, d)
	})
	var running int64
	for v := 0; v < n; v++ {
		running += int64(offsets[v])
		if running > math.MaxInt32 {
			panic("graph: edge stream exceeds the CSR int32 offset space")
		}
		offsets[v] = int32(running)
	}
	offsets[n] = int32(running)
	neighbors := make([]int32, running)
	var weights []int32
	if weighted {
		weights = make([]int32, running)
	}
	stream(func(u, v, d int) {
		checkEdge(n, u, v, d)
		if offsets[u] == 0 || offsets[v] == 0 {
			panic(errStreamChanged)
		}
		offsets[u]--
		offsets[v]--
		neighbors[offsets[u]] = int32(v)
		neighbors[offsets[v]] = int32(u)
		if weights != nil {
			weights[offsets[u]] = int32(d)
			weights[offsets[v]] = int32(d)
		}
		sum -= edgeHash(u, v, d)
	})
	if sum != 0 {
		panic(errStreamChanged)
	}
	g := &Graph{offsets: offsets, neighbors: neighbors, weights: weights}
	g.sortAndDedup()
	return g
}

const errStreamChanged = "graph: edge stream changed between passes"

// checkEdge panics unless {u,v} is an edge between two distinct
// vertices of [0,n) with a distance in [1, MaxInt32].
func checkEdge(n, u, v, d int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
	}
	if d < 1 || d > math.MaxInt32 {
		panic(fmt.Sprintf("graph: edge {%d,%d} has invalid distance %d", u, v, d))
	}
}

// edgeHash mixes an edge, in either orientation, into 64 bits
// (splitmix64's finalizer over both ends, then again with the
// distance).
func edgeHash(u, v, d int) uint64 {
	if u > v {
		u, v = v, u
	}
	return mix64(mix64(uint64(u)<<32|uint64(v)) + uint64(d))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// csrRow co-sorts one CSR row's neighbor and weight slices by neighbor
// id. sortAndDedup passes one reused *csrRow to sort.Sort, so sorting a
// weighted row allocates nothing.
type csrRow struct {
	nbr []int32
	wt  []int32
}

func (r *csrRow) Len() int           { return len(r.nbr) }
func (r *csrRow) Less(i, j int) bool { return r.nbr[i] < r.nbr[j] }
func (r *csrRow) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.wt[i], r.wt[j] = r.wt[j], r.wt[i]
}

// sortAndDedup sorts every CSR row and merges duplicate entries in
// place, compacting the neighbor (and weight) arrays and recomputing
// offsets and the edge count. Duplicate weighted edges keep the largest
// distance. Called by FromEdgeStream on freshly filled rows.
func (g *Graph) sortAndDedup() {
	offsets, neighbors, weights := g.offsets, g.neighbors, g.weights
	var sorter csrRow
	write := int32(0)
	rowStart := int32(0)
	for v := 1; v < len(offsets); v++ {
		end := offsets[v]
		if end-rowStart < 2 && write == rowStart {
			// Nothing has moved yet, and a row this short needs no
			// sorting or merging: it stays where it is.
			write, rowStart = end, end
			continue
		}
		row := neighbors[rowStart:end]
		var wts []int32
		if weights != nil {
			wts = weights[rowStart:end]
		}
		if len(row) > 1 {
			if wts == nil {
				slices.Sort(row)
			} else {
				sorter.nbr, sorter.wt = row, wts
				sort.Sort(&sorter)
			}
		}
		rowStart = end
		// Compact left; write never passes the current row's original
		// start, so reads stay ahead of writes.
		for i, u := range row {
			if i > 0 && u == row[i-1] {
				// Parallel edge: keep the tighter (larger) distance.
				if wts != nil && wts[i] > weights[write-1] {
					weights[write-1] = wts[i]
				}
				continue
			}
			neighbors[write] = u
			if wts != nil {
				weights[write] = wts[i]
			}
			write++
		}
		offsets[v] = write
	}
	g.neighbors = neighbors[:write]
	if weights != nil {
		g.weights = weights[:write]
	}
	g.m = int(write) / 2
}
