package sat

// Clause-exchange integration: the solver side of the clause-sharing
// portfolio (the exchange itself lives in internal/share). The solver
// offers every learnt clause to the exchange as it is derived, and
// integrates foreign clauses at restart boundaries — the only points
// where the trail is rewound to level 0, so an import is an ordinary
// database extension and never perturbs an in-flight search.
//
// Soundness has two regimes. Without a proof writer the exchange is
// trusted: peers run on the same formula, so their learnt clauses are
// logical consequences and adding them preserves equivalence (a
// corrupted exchange is exactly what the portfolio's -verify paranoia
// and the share failpoints exist to catch). With a proof writer every
// import must additionally be RUP with respect to the importing
// solver's current database — otherwise logging it would break the
// DRAT certificate, which is checked clause by clause with no
// knowledge of the peer that derived it. Non-RUP imports are simply
// rejected in proof mode; the certificate stays independently
// checkable by CheckDRAT.

// ClauseExchange connects a Solver to a clause-sharing peer group. The
// solver calls Learnt for every learnt clause as it is derived and
// Restart at every restart boundary, both from the solving goroutine;
// the implementation decides filtering, buffering and which foreign
// clauses to deliver back.
type ClauseExchange interface {
	// Learnt offers a just-derived learnt clause (asserting literal
	// first) with its literal-block distance. The slice is scratch owned
	// by the solver; implementations must copy what they keep and must
	// not block.
	Learnt(lits []Lit, lbd int32)
	// Restart marks a restart boundary: the exchange publishes the
	// clauses buffered by Learnt and delivers foreign clauses through
	// add, which reports whether the solver accepted the clause. add may
	// only be called during this Restart invocation, from the calling
	// goroutine; the literal slice passed to add is owned by the
	// exchange.
	Restart(add func(lits []Lit, lbd int32) bool)
}

// exchangeAtRestart runs the clause exchange at a restart boundary
// (decision level 0): buffered learnt clauses become visible to the
// peer group and foreign clauses are integrated into the database. It
// returns false when an import refuted the database — the solve must
// answer Unsat.
func (s *Solver) exchangeAtRestart() bool {
	alive := true
	s.opts.Exchange.Restart(func(lits []Lit, lbd int32) bool {
		if !alive {
			return false
		}
		accepted, ok := s.importShared(lits, lbd)
		if !ok {
			alive = false
		}
		return accepted
	})
	return alive
}

// importShared integrates one foreign clause at a restart boundary.
// accepted reports whether the clause entered the database (or refuted
// it); alive is false when the database is now unsatisfiable.
func (s *Solver) importShared(lits []Lit, lbd int32) (accepted, alive bool) {
	// Reduce against the level-0 trail into the import scratch buffer:
	// drop falsified literals, reject satisfied clauses, tautologies,
	// duplicates and clauses mentioning variables this solver never
	// created (a foreign clause from a different formula).
	buf := s.importBuf[:0]
	for _, l := range lits {
		if l.Var() < 0 || int(l.Var()) >= len(s.assigns) {
			s.importBuf = buf
			return false, true
		}
		switch s.value(l) {
		case lTrue:
			s.importBuf = buf
			return false, true
		case lFalse:
			continue
		}
		dup := false
		for _, p := range buf {
			if p == l {
				dup = true
				break
			}
			if p == l.Neg() {
				s.importBuf = buf
				return false, true
			}
		}
		if !dup {
			buf = append(buf, l)
		}
	}
	s.importBuf = buf
	if len(buf) == 0 {
		// Every literal is false at level 0: the clause, trusted to be
		// implied by the formula, refutes the database. Proof mode cannot
		// take this shortcut — the refutation is not RUP here (the trail
		// is already saturated), so it is rejected instead of breaking
		// the certificate.
		if s.proof != nil {
			return false, true
		}
		s.Stats.Imported++
		s.ok = false
		return true, false
	}
	if s.proof != nil {
		if !s.importRUP(buf) {
			return false, true
		}
		s.proof.addClause(buf)
	}
	s.Stats.Imported++
	if len(buf) == 1 {
		s.uncheckedEnqueue(buf[0], RefUndef)
		if s.propagate() != RefUndef {
			if s.proof != nil {
				s.proof.addClause(nil)
			}
			s.ok = false
			return true, false
		}
		return true, true
	}
	if len(buf) == 2 {
		s.bins.add(buf[0], buf[1])
		s.binLearnts++
		return true, true
	}
	if lbd < 1 {
		lbd = 1
	}
	if int(lbd) > len(buf) {
		lbd = int32(len(buf))
	}
	ref := s.ca.alloc(buf, true, lbd)
	s.learnts = append(s.learnts, ref)
	s.attach(ref)
	return true, true
}

// importRUP reports whether the clause follows from the current
// database by reverse unit propagation: assuming all its literals
// false must produce a conflict. Runs on a throwaway decision level
// that is unwound before returning.
func (s *Solver) importRUP(lits []Lit) bool {
	s.trailLim = append(s.trailLim, len(s.trail))
	for _, l := range lits {
		s.uncheckedEnqueue(l.Neg(), RefUndef)
	}
	confl := s.propagate()
	s.cancelUntil(0)
	return confl != RefUndef
}

// splitmix64 is the SplitMix64 mixing function — the seed expander
// behind Options.Seed diversification (and, in internal/share, clause
// fingerprints and per-lane schedules).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
