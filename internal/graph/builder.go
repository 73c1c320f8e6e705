package graph

// Builder accumulates an undirected graph edge by edge and Freeze()s it
// into the immutable CSR Graph every consumer reads. It is a plain edge
// list that Freeze streams through FromEdgeStream, so it shares that
// constructor's rules: self-loops are rejected (a 2-pin net cannot
// conflict with itself) and parallel edges are merged, keeping the
// largest distance.
//
// An edge costs 12 bytes and a vertex nothing: a Builder created for n
// vertices commits no storage until edges arrive, which is what lets
// the DIMACS parser accept a large declared vertex count without
// allocating for it up front.
type Builder struct {
	n     int
	edges []builderEdge
}

type builderEdge struct{ u, v, d int32 }

// NewBuilder creates a builder with n isolated vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// AddEdge inserts the undirected edge {u,v} with distance 1. Adding an
// existing edge is a no-op (an existing larger distance is kept);
// self-loops panic since they would make the coloring CSP trivially
// unsatisfiable by construction error. Out-of-range vertices panic too:
// these are programmer errors under the taxonomy of internal/robust —
// parse paths must validate before calling.
func (b *Builder) AddEdge(u, v int) {
	b.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge inserts the undirected edge {u,v} with distance
// d >= 1 (bandwidth coloring: |c(u)-c(v)| >= d). Re-adding an edge
// keeps the largest distance seen — the tighter constraint wins.
// Invalid distances panic like invalid vertices do, here rather than
// at Freeze.
func (b *Builder) AddWeightedEdge(u, v, d int) {
	checkEdge(b.n, u, v, d)
	b.edges = append(b.edges, builderEdge{int32(u), int32(v), int32(d)})
}

// Freeze streams the edge list into an immutable CSR Graph. The
// builder remains usable afterwards. A builder whose edges all have
// distance 1 freezes into an unweighted graph: the weight array only
// exists when a distance >= 2 occurs.
func (b *Builder) Freeze() *Graph {
	return FromEdgeStream(b.n, func(emit func(u, v, d int)) {
		for _, e := range b.edges {
			emit(int(e.u), int(e.v), int(e.d))
		}
	})
}
