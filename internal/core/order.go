package core

// The order (ladder) encoding and the distance-constraint conflict
// emitters. Bandwidth coloring generalizes the disequality constraint
// on an edge to |color(u)-color(v)| >= d; the "SAT Encodings for
// Bandwidth Coloring" design study identifies the order encoding as the
// natural fit because a distance constraint over order literals needs
// only O(D) interval clauses, against the O(D·d) pairwise clauses a
// value-indexed (cube) encoding needs.

// orderEncoding indexes a domain {0..d-1} with d-1 order variables
// ge[i] ≡ (value >= i) for i in 1..d-1, chained by the ladder clauses
// ge[i+1] → ge[i] ("a value of at least i+1 is at least i"). The cube
// selecting value c is then (value >= c) ∧ ¬(value >= c+1), with the
// boundary literals (value >= 0, always true; value >= d, always
// false) dropped.
type orderEncoding struct{}

// NewOrder returns the order (ladder) encoding.
func NewOrder() Encoding { return orderEncoding{} }

func (orderEncoding) Name() string { return "order" }

// Multivalued is false: under the ladder clauses every assignment
// selects exactly one value (the largest i with ge[i] true).
func (orderEncoding) Multivalued() bool { return false }

func (orderEncoding) emitVar(d int, a *alloc, sink ClauseSink) []Cube {
	if d == 1 {
		return []Cube{nil}
	}
	vars := a.block(d - 1) // vars[i-1] is ge[i], for i in 1..d-1
	for i := 0; i+1 < d-1; i++ {
		// Ladder (monotonicity): ge[i+2] → ge[i+1].
		sink.AddClause(vars[i], -vars[i+1])
	}
	cubes := make([]Cube, d)
	cubes[0] = Cube{-vars[0]}
	for c := 1; c < d-1; c++ {
		cubes[c] = Cube{vars[c-1], -vars[c]}
	}
	cubes[d-1] = Cube{vars[d-2]}
	return cubes
}

// geLit recovers the DIMACS literal of ge[i] (value >= i, 1 <= i <= d-1)
// from a vertex's cubes: the cube for value i >= 1 leads with the
// positive ge[i] literal.
func geLit(cubes vertexCubes, i int) int { return shift(cubes.t.cube(i)[0], cubes.base) }

// emitDistance emits the interval form of |x-y| >= dist over the order
// literals of both endpoints: for every length-dist window [w, w+dist)
// that intersects both domains, the clause
//
//	¬(x>=w) ∨ (x>=w+dist) ∨ ¬(y>=w) ∨ (y>=w+dist)
//
// ("not both inside the window"), with always-true/always-false
// boundary literals dropped. min(du,dv) clauses of at most 4 literals,
// independent of dist. Singleton domains fall back to the generic
// pairwise emitter, which handles constant values directly.
func (orderEncoding) emitDistance(cu, cv vertexCubes, du, dv, dist int, a *alloc, sink ClauseSink) bool {
	if du < 2 || dv < 2 {
		return false
	}
	common := du
	if dv < common {
		common = dv
	}
	for w := 0; w < common; w++ {
		cl := a.buf[:0]
		if w >= 1 {
			cl = append(cl, -geLit(cu, w))
		}
		if w+dist <= du-1 {
			cl = append(cl, geLit(cu, w+dist))
		}
		if w >= 1 {
			cl = append(cl, -geLit(cv, w))
		}
		if w+dist <= dv-1 {
			cl = append(cl, geLit(cv, w+dist))
		}
		a.buf = cl
		sink.AddClause(cl...)
	}
	return true
}

// guardLits appends to buf the literals completing an incremental width
// guard for a vertex with the given cubes: a single ¬ge[w] forbids every
// color >= w at once (the ladder clauses propagate ¬ge[w] upward), so
// the order encoding needs one 2-literal guard clause per (width,
// vertex) where cube encodings need a full negated cube.
func (orderEncoding) guardLits(cubes vertexCubes, w int, buf []int) []int {
	return append(buf, -geLit(cubes, w))
}

// distanceEncoding is the optional interface an Encoding implements to
// emit an edge's distance constraint natively instead of through the
// generic pairwise emitter. Implementations return false to fall back
// (e.g. for singleton domains).
type distanceEncoding interface {
	emitDistance(cu, cv vertexCubes, du, dv, dist int, a *alloc, sink ClauseSink) bool
}

// incrementalGuard is the optional interface an Encoding implements to
// shorten EncodeIncremental's per-vertex width guards (see guardLits).
type incrementalGuard interface {
	guardLits(cubes vertexCubes, w int, buf []int) []int
}

// emitDistanceConflicts emits the conflict clauses of a weighted
// (bandwidth-coloring) CSP: per edge {u,v} with distance d, every value
// pair closer than d is forbidden. Distance-native encodings (order)
// emit interval clauses through emitDistance; all other encodings get
// the generic windowed pairwise form — for each value a of u, the
// values of v in (a-d, a+d) — which at d=1 degenerates to exactly the
// classic per-common-value loop. This is what makes the distance-aware
// direct and log variants fall out of the existing cube machinery.
func emitDistanceConflicts(st *Streamed, a *alloc, cs ClauseSink) {
	de, _ := st.Encoding.(distanceEncoding)
	csp := st.CSP
	csp.G.ForEachWeightedEdge(func(u, v, d int) {
		du, dv := csp.Domain[u], csp.Domain[v]
		pu, pv := st.vertex(u), st.vertex(v)
		if de != nil && de.emitDistance(pu, pv, du, dv, d, a, cs) {
			return
		}
		for cu := 0; cu < du; cu++ {
			lo := cu - d + 1
			if lo < 0 {
				lo = 0
			}
			hi := cu + d - 1
			if hi > dv-1 {
				hi = dv - 1
			}
			for cv := lo; cv <= hi; cv++ {
				cl := pu.appendNegated(cu, a.buf[:0])
				cl = pv.appendNegated(cv, cl)
				a.buf = cl
				cs.AddClause(cl...)
			}
		}
	})
}
