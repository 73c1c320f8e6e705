package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpgasat/internal/graph"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

// Strategy pairs a SAT encoding with a symmetry-breaking heuristic —
// the unit the paper compares in Table 2 and combines into portfolios.
type Strategy struct {
	Encoding Encoding
	Symmetry symmetry.Heuristic
}

// Name returns "encoding/heuristic", with "-" for no symmetry breaking
// (matching the dashes in Table 2).
func (s Strategy) Name() string {
	h := string(s.Symmetry)
	if h == "" {
		h = "-"
	}
	return s.Encoding.Name() + "/" + h
}

// ParseStrategy parses "encoding" or "encoding/heuristic".
func ParseStrategy(spec string) (Strategy, error) {
	encName, symName := spec, ""
	if i := strings.LastIndex(spec, "/"); i >= 0 {
		encName, symName = spec[:i], spec[i+1:]
	}
	enc, err := ByName(encName)
	if err != nil {
		return Strategy{}, err
	}
	h, err := symmetry.Parse(symName)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Encoding: enc, Symmetry: h}, nil
}

// BuildCSP creates the k-coloring CSP for g with the symmetry-breaking
// domain restrictions of h applied. Weighted (bandwidth-coloring)
// graphs skip symmetry breaking regardless of h: the clique-based
// domain restrictions assume any color permutation maps solutions to
// solutions, but distance constraints are only invariant under
// translation and reflection, so restricting clique vertices to color
// prefixes would cut off real solutions.
func BuildCSP(g *graph.Graph, k int, h symmetry.Heuristic) *CSP {
	csp := NewCSP(g, k)
	if !g.Weighted() {
		csp.ApplySequence(symmetry.Sequence(g, k, h))
	}
	return csp
}

// EncodeGraph runs the full second translation step of the paper's
// tool flow for one strategy: symmetry-break, then encode the coloring
// CSP to CNF.
func (s Strategy) EncodeGraph(g *graph.Graph, k int) *Encoded {
	csp := BuildCSP(g, k, s.Symmetry)
	enc := Encode(csp, s.Encoding)
	enc.CNF.Comments = append(enc.CNF.Comments,
		fmt.Sprintf("symmetry: %s", orDash(string(s.Symmetry))))
	return enc
}

// Solved is the outcome of one strategy deciding one coloring, the unit
// of work that Table 2 costs as "translation to CNF + SAT solving".
type Solved struct {
	Status sat.Status
	Colors []int // the verified coloring, for Sat
	// EncodeTime covers taking a solver, symmetry breaking and streaming
	// the clauses into the solver; SolveTime covers the search plus
	// decoding and verifying a model.
	EncodeTime time.Duration
	SolveTime  time.Duration
	Vars       int
	Clauses    int
	Stats      sat.Stats
}

// Solve decides the k-coloring of g under the strategy. It builds the
// symmetry-broken CSP, streams its encoding into a solver from pool (a
// nil pool gives a fresh solver) configured with opts, and solves under
// ctx, returning Unknown once ctx is cancelled. A Sat model is decoded
// and verified; a model that fails verification is returned as an error,
// with status Sat and no coloring. The solver goes back to the pool only
// when nothing panicked.
func (s Strategy) Solve(ctx context.Context, g *graph.Graph, k int, pool *sat.Pool, opts sat.Options) (Solved, error) {
	start := time.Now()
	solver := pool.Get(opts)
	enc := EncodeInto(BuildCSP(g, k, s.Symmetry), s.Encoding, sat.SolverSink{S: solver})
	res := Solved{Vars: enc.NumVars, Clauses: enc.StructuralClauses + enc.ConflictClauses}
	encoded := time.Now()
	res.EncodeTime = encoded.Sub(start)
	res.Status = solver.Solve(ctx)
	res.Stats = solver.Stats
	var err error
	if res.Status == sat.Sat {
		res.Colors, err = enc.DecodeVerify(solver.Model())
	}
	res.SolveTime = time.Since(encoded)
	// Not deferred: a panicking solve must abandon the solver rather
	// than return its state to the pool.
	pool.Put(solver)
	return res, err
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
