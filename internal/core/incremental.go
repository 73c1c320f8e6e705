package core

import (
	"fmt"

	"fpgasat/internal/sat"
)

// Incremental is one encoding of a coloring graph at width K that
// serves every channel width w in [Lo, K] through assumptions, for the
// paper's central workflow of probing the same graph at adjacent
// widths (prove W-1 unroutable, route at W) on a single incremental
// solver.
//
// The color-domain upper bounds that a fresh encode at width w would
// bake into the domains are instead emitted as selector-guarded
// clauses: for each width w in [Lo, K) a selector variable sel_w
// guards, for every vertex whose domain contains color w, the clause
//
//	sel_w → ¬(color w selected at that vertex)
//
// and a staircase chain sel_w → sel_{w+1} links the selectors, so
// assuming the single literal sel_w forbids every color ≥ w and the
// effective per-vertex domains become min(Domain[v], w) — exactly the
// domains a single-shot encode at width w produces, because the
// symmetry-breaking sequences are width-independent orderings truncated
// to the first k-1 vertices (a prefix property; see symmetry.Sequence).
// Probing a width therefore needs exactly one assumption, and lemmas
// learnt at one width remain sound at every other, which is what makes
// learnt-clause reuse across the width search effective.
type Incremental struct {
	*Streamed
	// Lo is the smallest probeable width; [Lo, CSP.K] is the width range.
	Lo int
	// selectors[w-Lo] is the DIMACS index of sel_w, for w in [Lo, K).
	selectors []int
	// GuardClauses counts the emitted selector chain + guard clauses.
	GuardClauses int
}

// EncodeIncremental encodes the CSP at its full width csp.K into sink
// and appends the selector machinery covering widths [lo, csp.K]. The
// CSP should come from BuildCSP at width K; probing any width w in the
// range is then Assumptions(w) on a solver fed from the same sink. lo
// is clamped to [1, csp.K]. The selectors are numbered after the
// encoding's variables, and the count declared to the sink includes
// them.
func EncodeIncremental(csp *CSP, enc Encoding, lo int, sink ClauseSink) *Incremental {
	if lo < 1 {
		lo = 1
	}
	if lo > csp.K {
		lo = csp.K
	}
	st := newStreamed(csp, enc)
	inc := &Incremental{Streamed: st, Lo: lo, selectors: make([]int, csp.K-lo)}
	for i := range inc.selectors {
		st.NumVars++
		inc.selectors[i] = st.NumVars
	}
	stream(sink, st.NumVars, inc)
	return inc
}

// emit streams the encoding's clauses into sink, then the selector
// chain and the guard clauses, and counts every kind.
func (inc *Incremental) emit(sink ClauseSink) {
	inc.Streamed.emit(sink)
	csp, n := inc.CSP, len(inc.selectors)
	cs := &countingSink{sink: sink}
	for i := 0; i+1 < n; i++ {
		cs.AddClause(-inc.selectors[i], inc.selectors[i+1])
	}
	// An encoding with native order literals shortens the guard to a
	// single ¬(color >= w) literal; cube encodings guard by negating the
	// value-w cube (the staircase chain covers the widths above w).
	guard, _ := inc.Encoding.(incrementalGuard)
	var buf []int // scratch; sinks copy what they keep
	for w := inc.Lo; w < csp.K; w++ {
		sel := inc.selectors[w-inc.Lo]
		for v := 0; v < csp.G.N(); v++ {
			if csp.Domain[v] <= w {
				continue
			}
			buf = append(buf[:0], -sel)
			if guard != nil {
				buf = guard.guardLits(inc.vertex(v), w, buf)
			} else {
				buf = inc.vertex(v).appendNegated(w, buf)
			}
			cs.AddClause(buf...)
		}
	}
	inc.GuardClauses = cs.n
}

// SelectorVar returns the DIMACS index of sel_w, or 0 when width w
// needs no selector (w == K, the unguarded full-width probe).
func (inc *Incremental) SelectorVar(w int) int {
	if w < inc.Lo || w >= inc.CSP.K {
		return 0
	}
	return inc.selectors[w-inc.Lo]
}

// Assumptions returns the assumption literals that restrict the encoded
// formula to channel width w: one selector literal for w < K, none for
// w == K. Widths outside [Lo, K] are an error.
func (inc *Incremental) Assumptions(w int) ([]sat.Lit, error) {
	if w < inc.Lo || w > inc.CSP.K {
		return nil, fmt.Errorf("core: width %d outside encoded range [%d,%d]", w, inc.Lo, inc.CSP.K)
	}
	if w == inc.CSP.K {
		return nil, nil
	}
	return []sat.Lit{sat.LitFromDimacs(inc.selectors[w-inc.Lo])}, nil
}

// widthCSP returns the CSP as a single-shot encode at width w would
// build it: same graph, domains clamped to w.
func (inc *Incremental) widthCSP(w int) *CSP {
	dom := make([]int, len(inc.CSP.Domain))
	for v, d := range inc.CSP.Domain {
		if d > w {
			d = w
		}
		dom[v] = d
	}
	return &CSP{G: inc.CSP.G, K: w, Domain: dom}
}

// DecodeVerifyWidth decodes a model obtained under Assumptions(w) and
// verifies it is a proper coloring within the width-w domains. The
// guard clauses force every cube of a color ≥ w to be false under the
// model, so plain decoding already lands inside the restricted domains;
// the verification makes that an explicit end-to-end guarantee.
func (inc *Incremental) DecodeVerifyWidth(model []bool, w int) ([]int, error) {
	if w < inc.Lo || w > inc.CSP.K {
		return nil, fmt.Errorf("core: width %d outside encoded range [%d,%d]", w, inc.Lo, inc.CSP.K)
	}
	colors, err := inc.Decode(model)
	if err != nil {
		return nil, err
	}
	if err := inc.widthCSP(w).Verify(colors); err != nil {
		return nil, fmt.Errorf("core: decoded width-%d solution invalid: %w", w, err)
	}
	return colors, nil
}
