package core

import (
	"fmt"

	"fpgasat/internal/sat"
)

// Streamed is the sink-independent record of one encoding run: the
// bookkeeping needed to decode a model back into a CSP solution, plus
// the clause census. It is produced by EncodeInto, which streams the
// clauses themselves into a ClauseSink — a *sat.CNF buffer (Encode) or
// an incremental solver (sat.SolverSink) — without materializing an
// intermediate clause list.
type Streamed struct {
	Encoding Encoding
	CSP      *CSP
	// NumVars is the number of DIMACS variables of the formula: the
	// encoding's own, plus the selectors of an Incremental.
	NumVars int

	// Clause census, for the size ablation experiment.
	StructuralClauses int
	ConflictClauses   int

	// templates[d] encodes a domain of size d (nil when no vertex has
	// that size); vertex v's variables follow the first base[v].
	templates []*template
	base      []int
}

// Encoded is the SAT translation of a coloring CSP under a particular
// encoding, buffered as a CNF formula for DIMACS export and for checking
// DRAT proofs against. It is Streamed plus the materialized clause list.
// Solves stream instead (Strategy.Solve).
type Encoded struct {
	*Streamed
	CNF *sat.CNF
}

// template is the encoding of one domain size, recorded once by running
// emitVar with the first variable at 1. Every encoding gives a CSP
// variable one contiguous block of fresh Boolean variables and refers to
// no others, so the vertex whose block follows the first base variables
// gets exactly the clauses and cubes emitVar would emit there by
// shifting every template literal by base.
type template struct {
	vars int
	// clauses holds the structural clauses back to back, clause i
	// ending at clauseEnd[i]; cube c is cubes[cubeStart[c]:cubeStart[c+1]].
	clauses   []int
	clauseEnd []int
	cubes     []int
	cubeStart []int
}

func newTemplate(enc Encoding, d int) *template {
	t := &template{}
	a := newAlloc()
	cubes := enc.emitVar(d, a, t)
	if len(cubes) != d {
		panic(fmt.Sprintf("core: encoding %s produced %d cubes for domain %d",
			enc.Name(), len(cubes), d))
	}
	t.vars = a.count()
	t.cubeStart = make([]int, 1, d+1)
	for _, c := range cubes {
		t.cubes = append(t.cubes, c...)
		t.cubeStart = append(t.cubeStart, len(t.cubes))
	}
	return t
}

// AddClause records one structural clause: the template is the sink
// emitVar streams into.
func (t *template) AddClause(lits ...int) {
	t.clauses = append(t.clauses, lits...)
	t.clauseEnd = append(t.clauseEnd, len(t.clauses))
}

func (t *template) cube(c int) []int { return t.cubes[t.cubeStart[c]:t.cubeStart[c+1]] }

// shift moves a template literal onto the block that follows the first
// base variables.
func shift(l, base int) int {
	if l < 0 {
		return l - base
	}
	return l + base
}

// vertexCubes is one vertex's template placed on its variable block.
type vertexCubes struct {
	t    *template
	base int
}

func (e *Streamed) vertex(v int) vertexCubes {
	return vertexCubes{e.templates[e.CSP.Domain[v]], e.base[v]}
}

// emitClauses streams the vertex's structural clauses into sink,
// assembling each in buf, and returns the buffer for reuse.
func (p vertexCubes) emitClauses(buf []int, sink ClauseSink) []int {
	start := 0
	for _, end := range p.t.clauseEnd {
		buf = buf[:0]
		for _, l := range p.t.clauses[start:end] {
			buf = append(buf, shift(l, p.base))
		}
		sink.AddClause(buf...)
		start = end
	}
	return buf
}

// appendNegated appends the clause ¬cube(c) to dst.
func (p vertexCubes) appendNegated(c int, dst []int) []int {
	for _, l := range p.t.cube(c) {
		dst = append(dst, -shift(l, p.base))
	}
	return dst
}

// eval is Cube.Eval on cube c.
func (p vertexCubes) eval(c int, model []bool) bool {
	for _, l := range p.t.cube(c) {
		v := abs(l) + p.base
		if (l > 0) != (v <= len(model) && model[v-1]) {
			return false
		}
	}
	return true
}

// cube returns cube c as a fresh Cube.
func (p vertexCubes) cube(c int) Cube {
	var cube Cube
	for _, l := range p.t.cube(c) {
		cube = append(cube, shift(l, p.base))
	}
	return cube
}

// Cube returns the indexing Boolean pattern selecting color c at vertex
// v, for c < CSP.Domain[v]. It builds the cube afresh from the vertex's
// template on every call; it is meant for tests and introspection.
func (e *Streamed) Cube(v, c int) Cube { return e.vertex(v).cube(c) }

// EncodeInto translates the CSP to CNF under the given encoding,
// streaming every clause into sink: per-variable structural clauses
// first, then one conflict clause per edge per common domain value (the
// negated pair of indexing patterns). Each distinct domain size is
// encoded once, into a template, and every vertex is emitted as its
// template shifted onto its own variable block, so the encode keeps no
// per-vertex objects. The variable count is known before the first
// clause: a sink with a DeclareVars method receives it first, and a
// sink with a Census method then a replay of the clauses (see
// ClauseSink). Clauses are assembled in a scratch buffer reused across
// calls — sinks copy what they keep, per the ClauseSink contract. This
// is the hot path of the pipeline — with a sat.SolverSink the clauses
// go straight into the solver with no intermediate garbage.
func EncodeInto(csp *CSP, enc Encoding, sink ClauseSink) *Streamed {
	st := newStreamed(csp, enc)
	stream(sink, st.NumVars, st)
	return st
}

// newStreamed lays the encoding out: one template per domain size and
// each vertex's variable block.
func newStreamed(csp *CSP, enc Encoding) *Streamed {
	st := &Streamed{Encoding: enc, CSP: csp, base: make([]int, csp.G.N())}
	for v := range st.base {
		d := csp.Domain[v]
		for len(st.templates) <= d {
			st.templates = append(st.templates, nil)
		}
		if st.templates[d] == nil {
			st.templates[d] = newTemplate(enc, d)
		}
		st.base[v] = st.NumVars
		st.NumVars += st.templates[d].vars
	}
	return st
}

// emit streams the encoding's clauses into sink, structural ones first,
// and counts both kinds. Every call emits the same clauses.
func (st *Streamed) emit(sink ClauseSink) {
	csp := st.CSP
	a := newAlloc()
	cs := &countingSink{sink: sink}
	for v := range st.base {
		a.buf = st.vertex(v).emitClauses(a.buf, cs)
	}
	st.StructuralClauses = cs.n
	if csp.G.Weighted() {
		emitDistanceConflicts(st, a, cs)
	} else {
		// Classic disequality: one conflict clause per edge per common
		// domain value. Unweighted CSPs must emit byte-identical clause
		// streams to the pre-distance encoder (pinned by
		// TestPinnedClauseStreams).
		csp.G.ForEachEdge(func(u, v int) {
			common := csp.Domain[u]
			if csp.Domain[v] < common {
				common = csp.Domain[v]
			}
			cu, cv := st.vertex(u), st.vertex(v)
			for c := 0; c < common; c++ {
				cl := cu.appendNegated(c, a.buf[:0])
				cl = cv.appendNegated(c, cl)
				a.buf = cl
				cs.AddClause(cl...)
			}
		})
	}
	st.ConflictClauses = cs.n - st.StructuralClauses
}

// Encode translates the CSP to CNF under the given encoding into a
// buffered formula (EncodeInto with a *sat.CNF sink).
func Encode(csp *CSP, enc Encoding) *Encoded {
	cnf := &sat.CNF{}
	st := EncodeInto(csp, enc, cnf)
	cnf.Comments = append(cnf.Comments,
		fmt.Sprintf("encoding: %s", enc.Name()),
		fmt.Sprintf("graph: %d vertices, %d edges, %d colors", csp.G.N(), csp.G.M(), csp.K),
	)
	return &Encoded{Streamed: st, CNF: cnf}
}

// DescribeVariable returns the indexing Boolean patterns an encoding
// generates for a single CSP variable with domain {0..d-1}, together
// with the number of Boolean variables it allocates. It is used by the
// Figure 1 reproduction and by size ablations.
func DescribeVariable(enc Encoding, d int) ([]Cube, int, error) {
	if d < 1 {
		return nil, 0, fmt.Errorf("core: domain size %d", d)
	}
	a := newAlloc()
	cubes := enc.emitVar(d, a, discardSink{})
	return cubes, a.count(), nil
}

// Decode maps a satisfying assignment back to a CSP solution. For
// multivalued encodings several values may be selected; the smallest
// is taken, which the conflict clauses guarantee is safe.
func (e *Streamed) Decode(model []bool) ([]int, error) {
	colors := make([]int, e.CSP.G.N())
	for v := range colors {
		colors[v] = -1
		p := e.vertex(v)
		for c := 0; c < e.CSP.Domain[v]; c++ {
			if p.eval(c, model) {
				colors[v] = c
				break
			}
		}
		if colors[v] < 0 {
			return nil, fmt.Errorf("core: no domain value selected for vertex %d under %s",
				v, e.Encoding.Name())
		}
	}
	return colors, nil
}

// DecodeVerify decodes a satisfying assignment and verifies that the
// result is a proper coloring within every domain — the flow's
// end-to-end correctness guarantee.
func (e *Streamed) DecodeVerify(model []bool) ([]int, error) {
	colors, err := e.Decode(model)
	if err != nil {
		return nil, err
	}
	if err := e.CSP.Verify(colors); err != nil {
		return nil, fmt.Errorf("core: decoded solution invalid: %w", err)
	}
	return colors, nil
}
