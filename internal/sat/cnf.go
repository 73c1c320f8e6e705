package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// CNF is a formula in conjunctive normal form with literals in DIMACS
// convention: variables are 1-based, a negative integer is a negated
// literal, and 0 never appears inside a clause. CNF is the interchange
// type between the encoders in package core and this solver, and the
// formula DIMACS export and DRAT checks read.
//
// The clauses live back to back in one literal slab, so a clause costs
// its literals, 4 bytes each, plus a 4-byte end offset: a binary clause
// takes 12 bytes and no allocation of its own. Read them through
// NumClauses and Clause.
type CNF struct {
	NumVars int
	// lits holds every clause's literals in order; clause i is
	// lits[ends[i-1]:ends[i]], with ends[-1] read as 0.
	lits []int32
	ends []uint32
	// Comments are emitted at the top of DIMACS output; encoders use
	// them to record the encoding, symmetry heuristic and source graph.
	Comments []string
}

// AddClause appends a copy of the clause. Callers may reuse the slice
// after the call, per the clause-sink contract (see core.ClauseSink):
// emitters stream clauses from a scratch buffer and every sink copies
// what it intends to keep. It allocates only when the slab grows, and
// panics on literal 0 or on a variable beyond the solver's limit.
func (c *CNF) AddClause(lits ...int) {
	// Check the whole clause first, so a panic leaves no partial clause
	// at the end of the slab.
	for _, l := range lits {
		if l == 0 {
			panic("sat: literal 0 in clause")
		}
		if l > maxVars || l < -maxVars {
			panic("sat: variable limit exceeded")
		}
		if v := abs(l); v > c.NumVars {
			c.NumVars = v
		}
	}
	for _, l := range lits {
		c.lits = append(c.lits, int32(l))
	}
	c.endClause()
}

// endClause closes the clause made of the literals appended since the
// last one ended.
func (c *CNF) endClause() {
	if uint64(len(c.lits)) > math.MaxUint32 {
		panic("sat: CNF exceeds 2^32-1 literals")
	}
	c.ends = append(c.ends, uint32(len(c.lits)))
}

// DeclareVars raises NumVars to n: the clause-sink declaration (see
// core.ClauseSink) through which an encoder states the formula's
// variable count before its first clause.
func (c *CNF) DeclareVars(n int) {
	if n > c.NumVars {
		c.NumVars = n
	}
}

// Census takes a replay of the clauses an encoder is about to stream,
// after DeclareVars (see core.ClauseSink), and grows the slab once to
// hold them all, instead of step by step as they arrive.
func (c *CNF) Census(replay func(count func(lits ...int))) {
	clauses, lits := 0, 0
	replay(func(cl ...int) {
		clauses++
		lits += len(cl)
	})
	c.lits = slices.Grow(c.lits, lits)
	c.ends = slices.Grow(c.ends, clauses)
}

// NumClauses returns the number of clauses.
func (c *CNF) NumClauses() int { return len(c.ends) }

// NumLiterals returns the total literal count over all clauses.
func (c *CNF) NumLiterals() int { return len(c.lits) }

// Clause returns clause i, 0 <= i < NumClauses(), as a view into the
// slab. The view is read-only, and stays valid while clauses are added.
func (c *CNF) Clause(i int) []int32 {
	end := c.ends[i]
	return c.lits[c.start(i):end:end]
}

// start returns the slab offset of clause i's first literal.
func (c *CNF) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return c.ends[i-1]
}

// Validate checks structural well-formedness (no zero literals, all
// variables within NumVars, no empty header mismatch).
func (c *CNF) Validate() error {
	for i := range c.ends {
		for _, l := range c.Clause(i) {
			if l == 0 {
				return fmt.Errorf("sat: clause %d contains literal 0", i)
			}
			if abs(int(l)) > c.NumVars {
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
	s.bins.census(func() {
		for i := range c.ends {
			if cl := c.Clause(i); len(cl) == 2 {
				s.bins.count(LitFromDimacs(int(cl[0])), LitFromDimacs(int(cl[1])))
			}
		}
	})
	for i := range c.ends {
		lits := s.litBuf[:0]
		for _, d := range c.Clause(i) {
			lits = append(lits, LitFromDimacs(int(d)))
		}
		s.litBuf = lits
		if !s.AddClause(lits...) {
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
func solveCNFOn(s *Solver, ctx context.Context, c *CNF) Result {
	if !s.Load(c) {
		// Refuted during loading (conflicting units at level 0). Solve
		// on the refuted database is a cheap no-op that still closes
		// the DRAT proof with the empty clause — returning Unsat here
		// directly would leave a proof that derives nothing. It runs
		// under a background context so that a cancelled ctx cannot
		// skip the proof's last line.
		return Result{Status: s.Solve(context.Background()), Stats: s.Stats}
	}
	st := s.Solve(ctx)
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
	for i := range c.ends {
		sat := false
		for _, l := range c.Clause(i) {
			v := abs(int(l))
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
