package sat

import (
	"context"
	"fmt"
)

// CNF is a formula in conjunctive normal form with literals in DIMACS
// convention: variables are 1-based, a negative integer is a negated
// literal, and 0 never appears inside a clause. CNF is the interchange
// type between the encoders in package core and this solver.
type CNF struct {
	NumVars int
	Clauses [][]int
	// Comments are emitted at the top of DIMACS output; encoders use
	// them to record the encoding, symmetry heuristic and source graph.
	Comments []string
}

// AddClause appends a copy of the clause. Callers may reuse the slice
// after the call, per the clause-sink contract (see core.ClauseSink):
// emitters stream clauses from a scratch buffer and every sink copies
// what it intends to keep.
func (c *CNF) AddClause(lits ...int) {
	for _, l := range lits {
		if l == 0 {
			panic("sat: literal 0 in clause")
		}
		if v := abs(l); v > c.NumVars {
			c.NumVars = v
		}
	}
	c.Clauses = append(c.Clauses, append([]int(nil), lits...))
}

// DeclareVars raises NumVars to n: the clause-sink declaration (see
// core.ClauseSink) through which an encoder states the formula's
// variable count before its first clause.
func (c *CNF) DeclareVars(n int) {
	if n > c.NumVars {
		c.NumVars = n
	}
}

// NumClauses returns the number of clauses.
func (c *CNF) NumClauses() int { return len(c.Clauses) }

// NumLiterals returns the total literal count over all clauses.
func (c *CNF) NumLiterals() int {
	n := 0
	for _, cl := range c.Clauses {
		n += len(cl)
	}
	return n
}

// Validate checks structural well-formedness (no zero literals, all
// variables within NumVars, no empty header mismatch).
func (c *CNF) Validate() error {
	for i, cl := range c.Clauses {
		for _, l := range cl {
			if l == 0 {
				return fmt.Errorf("sat: clause %d contains literal 0", i)
			}
			if abs(l) > c.NumVars {
				return fmt.Errorf("sat: clause %d literal %d exceeds NumVars=%d", i, l, c.NumVars)
			}
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Load adds all clauses of the formula to the solver, creating the
// variables first so that variable numbering matches the DIMACS file
// (DIMACS variable i is solver Var(i-1)). When that creates implication
// lists, every empty list is sized from a census of the formula's binary
// clauses.
func (s *Solver) Load(c *CNF) bool {
	s.ensureVars(c.NumVars)
	s.bins.census(func(count func(lits ...int)) {
		for _, cl := range c.Clauses {
			count(cl...)
		}
	})
	for _, cl := range c.Clauses {
		if !s.AddDimacsClause(cl...) {
			return false
		}
	}
	return true
}

// Result bundles the outcome of SolveCNFContext or SolveCNFReusing.
type Result struct {
	Status Status
	// Model, for Sat results, maps DIMACS variable v (1-based) to
	// Model[v-1].
	Model []bool
	Stats Stats
}

// SolveCNFContext loads the formula into a fresh solver configured with
// opts and solves it. The solve returns Unknown promptly once ctx is
// cancelled or its deadline passes.
func SolveCNFContext(ctx context.Context, c *CNF, opts Options) Result {
	return SolveCNFReusing(ctx, nil, c, opts)
}

// SolveCNFReusing is SolveCNFContext on a pooled solver: the solver is
// taken from the pool (reset and configured with opts), used for this
// one solve, and returned afterwards. A nil pool falls back to a fresh
// solver.
func SolveCNFReusing(ctx context.Context, pool *Pool, c *CNF, opts Options) Result {
	s := pool.Get(opts)
	res := solveCNFOn(s, ctx, c)
	// Deliberately not deferred: a panicking solve must abandon the
	// solver rather than return its corrupted state to the pool.
	pool.Put(s)
	return res
}

// solveCNFOn loads the formula into s and solves it under ctx.
// SolveAssumingContext joins its cancellation watcher before returning,
// so a late Stop can never land on a solver that has already been
// handed to another solve (essential once solvers are pooled).
func solveCNFOn(s *Solver, ctx context.Context, c *CNF) Result {
	if !s.Load(c) {
		// Refuted during loading (conflicting units at level 0). Solve
		// on the refuted database is a cheap no-op that still closes
		// the DRAT proof with the empty clause — returning Unsat here
		// directly would leave a proof that derives nothing.
		return Result{Status: s.Solve(), Stats: s.Stats}
	}
	st := s.SolveAssumingContext(ctx)
	res := Result{Status: st, Stats: s.Stats}
	if st == Sat {
		m := s.Model()
		res.Model = make([]bool, c.NumVars)
		copy(res.Model, m)
	}
	return res
}

// Eval reports whether assignment (1-based indexing into model as in
// Result.Model) satisfies the formula. Variables beyond len(model) are
// treated as false.
func (c *CNF) Eval(model []bool) bool {
	for _, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			v := abs(l)
			val := v-1 < len(model) && model[v-1]
			if (l > 0) == val {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}
