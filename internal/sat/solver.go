package sat

import (
	"context"
	"io"
	"math"
	"slices"
	"sort"
)

// watch pairs a watched arena clause with a blocker literal: if the
// blocker is already true the clause is satisfied and need not be
// inspected. With arena references instead of clause pointers an entry
// is 8 bytes, halving watch-list bandwidth during propagation.
type watch struct {
	ref     ClauseRef
	blocker Lit
}

// watchLists holds the watch lists of the arena clauses. Only the
// literals some clause has watched own a list: on the scaled fabrics,
// whose formulas are almost all binary clauses, that is a tenth to a
// quarter of them. Every literal holds a 4-byte list number, where a
// 24-byte list header each would cost more than the lists themselves.
// List 0 is a shared empty list, so propagation reads any literal's
// list without a branch; a literal gets a list of its own the first
// time a clause watches it.
//
// The headers live in blocks that are allocated when the last one is
// full and are never copied, so a pointer to a header stays valid while
// other literals get lists. The first block holds 1<<watchFirstBits
// headers and each next one twice as many, up to 1<<watchBlockBits, so
// a small solver pays for a small table. List n lies at
// blocks[n>>watchBlockBits][n&watchBlockMask].
//
// Reset keeps every block and every list's capacity, and hands the lists
// out again in first-watch order, so a warm reload of the same formula
// allocates nothing. Lists not yet handed out since the Reset hold stale
// entries that nothing reads.
type watchLists struct {
	idx    []uint32 // indexed by Lit: the literal's list number, 0 if none
	blocks [][][]watch
	next   uint32 // the number of the next list to hand out
}

const (
	watchFirstBits = 4
	watchBlockBits = 10
	watchBlockMask = 1<<watchBlockBits - 1
)

// reset forgets which literal owns which list, keeping every list.
func (wl *watchLists) reset() {
	if len(wl.blocks) == 0 {
		wl.blocks = append(wl.blocks, make([][]watch, 1<<watchFirstBits))
	}
	wl.idx = wl.idx[:0]
	wl.next = 1
}

// addVar gives a new variable's two literals the shared empty list.
func (wl *watchLists) addVar() { wl.idx = append(wl.idx, 0, 0) }

// list returns l's list header. The pointer stays valid until the next
// Reset.
func (wl *watchLists) list(l Lit) *[]watch { return wl.at(wl.idx[l]) }

// at returns the header of list n.
func (wl *watchLists) at(n uint32) *[]watch {
	return &wl.blocks[n>>watchBlockBits][n&watchBlockMask]
}

// push appends w to l's list, handing l a list first if it has none.
func (wl *watchLists) push(l Lit, w watch) {
	n := wl.idx[l]
	if n == 0 {
		n = wl.give()
		wl.idx[l] = n
	}
	ws := wl.at(n)
	*ws = append(*ws, w)
}

// give hands out the next list, emptied, and returns its number. It
// allocates the list's block if no earlier solve reached it.
func (wl *watchLists) give() uint32 {
	n := wl.next
	b, o := int(n>>watchBlockBits), n&watchBlockMask
	if b == len(wl.blocks) {
		wl.blocks = append(wl.blocks, make([][]watch, 1<<min(watchFirstBits+b, watchBlockBits)))
	}
	blk := wl.blocks[b]
	blk[o] = blk[o][:0]
	if int(o)+1 < len(blk) {
		wl.next = n + 1
	} else {
		wl.next = uint32(b+1) << watchBlockBits
	}
	return n
}

// Stats counts solver work. It is valid after Solve returns and is
// also delivered, as a point-in-time snapshot, to the Options.Progress
// callback during a solve.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64 // learnt clauses added
	Removed      int64 // learnt clauses deleted by reduceDB
	Imported     int64 // foreign clauses integrated from a ClauseExchange
	MaxTrail     int   // deepest trail seen
	// LearntDB and TrailDepth are point-in-time values filled in for
	// Progress snapshots: the current learnt-clause database size and
	// the current assignment-trail depth.
	LearntDB   int
	TrailDepth int
}

// Options configure a Solver. The zero value selects defaults.
type Options struct {
	// ConflictBudget, when positive, bounds the number of conflicts
	// before Solve returns Unknown.
	ConflictBudget int64
	// VarDecay is the VSIDS decay factor in (0,1); 0 selects the
	// default 0.95. Larger values keep activity longer (slower focus
	// shifts); smaller values chase recent conflicts harder.
	VarDecay float64
	// RestartBase is the conflict budget unit of the restart schedule;
	// 0 selects the default 100.
	RestartBase int64
	// GeometricRestarts replaces the Luby schedule with a geometric
	// one (budget multiplied by 1.5 per restart), the strategy of
	// several pre-Luby clause-learning solvers.
	GeometricRestarts bool
	// ProofWriter, when non-nil, receives a DRAT unsatisfiability
	// proof: every learnt clause and deletion is logged, and an Unsat
	// answer ends with the empty clause. Verify with CheckDRAT.
	ProofWriter io.Writer
	// LearntLimit, when positive, caps the learnt-clause database size
	// that triggers deletion (default max(#clauses/3, 5000)); smaller
	// values bound memory at the cost of relearning. The cap is a hard
	// ceiling: the usual geometric growth of the deletion threshold
	// across restarts never exceeds it.
	LearntLimit int
	// Progress, when non-nil, is invoked with a Stats snapshot at every
	// restart and periodically during search (every
	// progressDecisionInterval decisions or progressPropagationInterval
	// propagations, whichever comes first), so that long conflict-free
	// propagation phases remain visible. The callback runs on the
	// solving goroutine and must return promptly; it must not call back
	// into the Solver. It may cancel the solve's context, which the
	// solve notices before its next decision.
	Progress func(Stats)
	// Seed, when non-zero, diversifies the search trajectory: initial
	// branching polarities and a tiny variable-activity jitter are drawn
	// from the seed, so identically configured solvers on the same
	// formula explore different parts of the search space. Runs with the
	// same seed are replayable. Seed 0 keeps the deterministic MiniSat
	// defaults (negative initial phase everywhere, zero initial activity).
	Seed int64
	// Exchange, when non-nil, connects the solver to a learnt-clause
	// exchange (see internal/share): learnt clauses are offered as they
	// are derived and foreign clauses are imported at restart
	// boundaries. See ClauseExchange for the contract.
	Exchange ClauseExchange
}

// Profile is a named solver configuration. The paper compared two
// external solvers (siege_v4, stronger on unsatisfiable formulas, and
// MiniSat, slightly ahead on satisfiable ones); Profiles exposes two
// analogous configurations of this solver so that the experiment can
// be reproduced without external binaries.
type Profile struct {
	Name string
	Opts Options
}

// Profiles returns the built-in solver configurations: "luby" (MiniSat
// defaults: Luby restarts, decay 0.95, phase saving) and "geometric"
// (geometric restarts from a larger base with slower decay, in the
// style of earlier clause-learning solvers such as siege).
func Profiles() []Profile {
	return []Profile{
		{Name: "luby", Opts: Options{}},
		{Name: "geometric", Opts: Options{
			GeometricRestarts: true,
			RestartBase:       700,
			VarDecay:          0.99,
		}},
	}
}

// Solver is a CDCL SAT solver: two-literal watching, first-UIP conflict
// analysis with basic clause minimization, VSIDS branching with phase
// saving, Luby restarts and activity/LBD-driven learnt-clause deletion.
// Clauses of three or more literals live in a flat arena (see arena.go)
// addressed by ClauseRef offsets; binary clauses live only in
// per-literal implication lists (see implication.go). Reset rewinds the
// solver for a fresh problem while keeping the arena, list and trail
// capacity, so one Solver can serve many solves without re-paying its
// allocations.
//
// A Solver is not safe for concurrent use. A running Solve is cancelled
// through its context.
type Solver struct {
	opts Options

	ca      clauseArena
	clauses []ClauseRef // problem clauses of 3+ literals
	learnts []ClauseRef // learnt clauses of 3+ literals
	watches watchLists  // watches.list(l) holds the arena clauses watching l
	// bins.list(l) holds the other literal of every binary clause
	// containing l, so each entry is implied once l is false. binClauses
	// and binLearnts count the problem and learnt binary clauses (learnt
	// ones are never deleted); each has one entry in each of its
	// literals' lists. binConfl is the list entry found false in the last
	// binary conflict, the clause's second literal beside the tagged ref.
	bins                   implLists
	binClauses, binLearnts int
	binConfl               Lit

	assigns  []int8 // indexed by Var
	polarity []bool // saved phase, indexed by Var
	level    []int32
	reason   []ClauseRef // RefUndef = decision or unassigned
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc     float64
	maxLearnts float64

	seen     []byte
	minStack []Lit // scratch: all literals marked seen during analyze
	lbdStamp []int64
	lbdGen   int64

	// Per-solver scratch buffers so the hot add/learn/delete paths do
	// not allocate: addBuf backs AddClause's sort/dedupe, litBuf backs
	// AddDimacsClause's DIMACS conversion, learntBuf backs the learnt
	// clause built by analyze, proofBuf backs DRAT deletion lines.
	addBuf    []Lit
	litBuf    []Lit
	learntBuf []Lit
	proofBuf  []Lit
	importBuf []Lit

	ok    bool // false once an empty clause is derived at level 0
	proof *proofLogger
	// done is the Done channel of the running solve's context, nil
	// between solves and for a context that cannot be cancelled.
	done <-chan struct{}

	// Incremental-solve state: the assumptions of the current solve
	// call (one per decision level below all search decisions), the
	// failed-assumption core of the last Unsat answer (nil when the
	// clause database itself is unsatisfiable), and the Conflicts value
	// at the start of the current call, so Options.ConflictBudget
	// bounds each call rather than the solver's lifetime.
	assumptions  []Lit
	conflictCore []Lit
	conflictBase int64

	// Next Stats.Decisions / Stats.Propagations values at which search
	// checks for cancellation and fires the Progress callback.
	pollDecisions    int64
	pollPropagations int64

	model []bool
	Stats Stats
}

// Default VSIDS and clause-activity decay factors (MiniSat values).
const (
	defaultVarDecay    = 0.95
	clauseDecay        = 0.999
	defaultRestartBase = 100 // conflicts per Luby unit
)

// In-search polling intervals: cancellation is checked (and Progress fired)
// after this many decisions or propagations, whichever comes first, in
// addition to the per-1024-conflicts check. The decision interval
// bounds cancellation latency on conflict-free searches, where neither
// conflicts nor restarts ever occur; the propagation interval bounds it
// on long unit-propagation phases with few decisions.
const (
	progressDecisionInterval    = 1 << 10
	progressPropagationInterval = 1 << 17
)

// New creates a solver with the given options.
func New(opts Options) *Solver {
	s := &Solver{}
	s.order = newVarHeap(&s.activity)
	s.Reset(opts)
	return s
}

// Reset rewinds the solver to the just-constructed state under new
// options while retaining the capacity of the clause arena, watch
// lists, trail and per-variable tables, so the next problem loads
// without re-paying their allocations. Any proof logger is replaced
// according to opts.ProofWriter; statistics start from zero. Reset
// must not be called while a solve is running.
func (s *Solver) Reset(opts Options) {
	s.opts = opts
	s.ca.reset()
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	s.watches.reset()
	s.bins.reset()
	s.binClauses, s.binLearnts = 0, 0
	s.assigns = s.assigns[:0]
	s.polarity = s.polarity[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.order.reset()
	s.varInc = 1
	s.claInc = 1
	s.maxLearnts = 0
	s.seen = s.seen[:0]
	s.minStack = s.minStack[:0]
	// lbdStamp/lbdGen survive: stamps are generation-checked, and the
	// generation counter only ever grows, so stale stamps never match.
	s.ok = true
	s.proof = nil
	if opts.ProofWriter != nil {
		s.proof = newProofLogger(opts.ProofWriter)
	}
	s.assumptions = s.assumptions[:0]
	s.conflictCore = nil
	s.conflictBase = 0
	s.pollDecisions = 0
	s.pollPropagations = 0
	s.model = nil
	s.Stats = Stats{}
}

// maxVars bounds the variable count so that no literal reaches 2^31-1,
// the literal RefUndef would name as a binary-clause reference.
const maxVars = 1<<30 - 1

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	if v >= maxVars {
		panic("sat: variable limit exceeded")
	}
	phase := false
	act := 0.0
	if s.opts.Seed != 0 {
		// Seeded diversification: the polarity and a sub-unit activity
		// jitter are a pure function of (seed, variable), so a seeded run
		// replays exactly while distinct seeds branch differently from
		// the first decision on. The jitter stays below the first
		// conflict's activity bump, so VSIDS ordering under conflicts is
		// unaffected; it only breaks ties among never-bumped variables.
		h := splitmix64(uint64(s.opts.Seed) ^ splitmix64(uint64(v)+0x9e3779b97f4a7c15))
		phase = h&1 == 1
		act = float64(h>>40) / float64(int64(1)<<24) * 1e-3
	}
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, phase)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, RefUndef)
	s.activity = append(s.activity, act)
	s.seen = append(s.seen, 0)
	s.watches.addVar()
	s.bins.addVar()
	s.order.insert(v)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// ensureVars creates variables until the solver has n. Tables without
// room for n variables grow once, to exactly n (2n per-literal entries),
// instead of once per append; the variables are then created one by
// one, in index order, exactly as repeated NewVar calls create them.
func (s *Solver) ensureVars(n int) {
	if n <= len(s.assigns) {
		return
	}
	if n > maxVars {
		panic("sat: variable limit exceeded")
	}
	s.assigns = grown(s.assigns, n)
	s.polarity = grown(s.polarity, n)
	s.level = grown(s.level, n)
	s.reason = grown(s.reason, n)
	s.activity = grown(s.activity, n)
	s.seen = grown(s.seen, n)
	s.trail = grown(s.trail, n)
	s.watches.idx = grown(s.watches.idx, 2*n)
	s.bins.spans = grown(s.bins.spans, 2*n)
	s.order.heap = grown(s.order.heap, n)
	s.order.indices = grown(s.order.indices, n)
	for len(s.assigns) < n {
		s.NewVar()
	}
}

// grown returns s with room for n elements, reallocating to a capacity
// of exactly n when it has less. Elements between the length and the old
// capacity are kept: after a Reset they hold retained per-literal lists.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	t := make([]T, len(s), n)
	copy(t[:cap(s)], s[:cap(s)])
	return t
}

func (s *Solver) value(l Lit) int8 {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause (literals in DIMACS-free Lit form).
// It returns false if the formula is already known unsatisfiable.
// It may be called before the first solve and between solve calls
// (every solve returns with the trail unwound to decision level 0, so
// the new clause is simplified against the level-0 trail and its watch
// literals attach exactly as during initial construction); it must not
// be called while a solve is running. The literal slice is not
// retained; callers may reuse it.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Sort and strip duplicates/tautologies and level-0 false literals,
	// in a scratch buffer reused across calls.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		for Var(len(s.assigns)) <= l.Var() {
			s.NewVar() // undeclared variables come one at a time
		}
		switch {
		case s.value(l) == lTrue || l == prev.Neg() && prev != LitUndef:
			return true // satisfied or tautological
		case s.value(l) == lFalse || l == prev:
			continue // falsified at level 0 or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], RefUndef)
		s.ok = s.propagate() == RefUndef
		return s.ok
	case 2:
		s.bins.add(out[0], out[1])
		s.binClauses++
		return true
	}
	ref := s.ca.alloc(out, false, 0)
	s.clauses = append(s.clauses, ref)
	s.attach(ref)
	return true
}

// AddDimacsClause adds a clause given as DIMACS integers.
func (s *Solver) AddDimacsClause(dimacs ...int) bool {
	lits := s.litBuf[:0]
	for _, d := range dimacs {
		lits = append(lits, LitFromDimacs(d))
	}
	s.litBuf = lits
	return s.AddClause(lits...)
}

func (s *Solver) attach(ref ClauseRef) {
	lits := s.ca.lits(ref)
	l0, l1 := Lit(lits[0]), Lit(lits[1])
	s.watches.push(l0, watch{ref, l1})
	s.watches.push(l1, watch{ref, l0})
}

func (s *Solver) detach(ref ClauseRef) {
	lits := s.ca.lits(ref)
	for _, l := range [2]Lit{Lit(lits[0]), Lit(lits[1])} {
		wp := s.watches.list(l)
		ws := *wp
		for i := range ws {
			if ws[i].ref == ref {
				ws[i] = ws[len(ws)-1]
				*wp = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from ClauseRef) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if len(s.trail) > s.Stats.MaxTrail {
		s.Stats.MaxTrail = len(s.trail)
	}
}

// propagate performs unit propagation and returns the first conflicting
// clause, or RefUndef if a fixpoint was reached. Each falsified literal's
// binary implications are applied first, then its arena watches. A
// binary conflict is returned as the reason the list entry found false
// would have had, binRef of the falsified literal, with the entry in
// s.binConfl.
func (s *Solver) propagate() ClauseRef {
	confl := RefUndef
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Neg()
		for _, q := range s.bins.list(falseLit) {
			switch s.value(q) {
			case lUndef:
				s.uncheckedEnqueue(q, binRef(falseLit))
			case lFalse:
				s.binConfl = q
				s.qhead = len(s.trail)
				return binRef(falseLit)
			}
		}
		wp := s.watches.list(falseLit)
		ws := *wp
		j := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			lits := s.ca.lits(w.ref)
			// Ensure the falsified literal is at position 1.
			if Lit(lits[0]) == falseLit {
				lits[0], lits[1] = lits[1], uint32(falseLit)
			}
			first := Lit(lits[0])
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watch{w.ref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(Lit(lits[k])) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					// watches.push, by hand: the compiler does not inline
					// it, and a call on this path cost PHP7 about 5%.
					n := s.watches.idx[lits[1]]
					if n == 0 {
						n = s.watches.give()
						s.watches.idx[lits[1]] = n
					}
					to := s.watches.at(n)
					*to = append(*to, watch{w.ref, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watch{w.ref, first}
			j++
			if s.value(first) == lFalse {
				confl = w.ref
				s.qhead = len(s.trail)
				// Copy the remaining watches back before bailing out.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		*wp = ws[:j]
		if confl != RefUndef {
			return confl
		}
	}
	return RefUndef
}

// analyze derives a first-UIP learnt clause from the conflict confl.
// It returns the learnt literals (asserting literal first) and the
// backtrack level. The returned slice is scratch owned by the solver,
// valid until the next analyze call.
func (s *Solver) analyze(confl ClauseRef) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], LitUndef) // slot 0 reserved for the asserting literal
	pathC := 0
	p := LitUndef
	index := len(s.trail) - 1

	var bin [2]uint32 // a binary clause's literals, outside the arena
	for {
		var lits []uint32
		if isBinRef(confl) {
			// A binary reason (p ∨ binLit) or, in the first round, the
			// binary conflict (s.binConfl ∨ binLit).
			bin = [2]uint32{uint32(s.binConfl), uint32(binLit(confl))}
			lits = bin[:]
		} else {
			s.claBumpActivity(confl)
			lits = s.ca.lits(confl)
		}
		if p != LitUndef {
			lits = lits[1:] // lits[0] of a reason clause is the propagated literal
		}
		for _, qw := range lits {
			q := Lit(qw)
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.varBumpActivity(v)
				s.seen[v] = 1
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next literal of the current level on the trail.
		for s.seen[s.trail[index].Var()] == 0 {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Basic conflict-clause minimization: drop literals whose reason is
	// subsumed by the rest of the learnt clause. Seen flags of dropped
	// literals must still be cleared afterwards, so remember them.
	s.minStack = append(s.minStack[:0], learnt...)
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	btLevel := 0
	if len(learnt) > 1 {
		// Move a literal of the highest remaining level to slot 1.
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range s.minStack {
		s.seen[l.Var()] = 0
	}
	s.learntBuf = learnt[:0]
	return learnt, btLevel
}

// litRedundant reports whether l's reason clause is entirely covered by
// literals already marked seen (or fixed at level 0), making l
// removable from the learnt clause. This is the non-recursive "basic"
// minimization of MiniSat.
func (s *Solver) litRedundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == RefUndef {
		return false
	}
	if isBinRef(r) {
		v := binLit(r).Var()
		return s.seen[v] != 0 || s.level[v] == 0
	}
	for _, qw := range s.ca.lits(r)[1:] {
		v := Lit(qw).Var()
		if s.seen[v] == 0 && s.level[v] > 0 {
			return false
		}
	}
	return true
}

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = RefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = bound
}

func (s *Solver) varBumpActivity(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(v)
}

func (s *Solver) varDecayActivity() {
	decay := s.opts.VarDecay
	if decay == 0 {
		decay = defaultVarDecay
	}
	s.varInc /= decay
}

func (s *Solver) claBumpActivity(ref ClauseRef) {
	if !s.ca.learnt(ref) {
		return
	}
	a := s.ca.act(ref) + float32(s.claInc)
	s.ca.setAct(ref, a)
	if a > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setAct(lr, s.ca.act(lr)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() { s.claInc /= clauseDecay }

// pickBranchLit selects the unassigned variable with highest activity
// and applies the saved phase. It returns LitUndef when all variables
// are assigned (i.e. the formula is satisfied).
func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.removeMin()
		if s.assigns[v] == lUndef {
			s.Stats.Decisions++
			return MkLit(v, !s.polarity[v])
		}
	}
	return LitUndef
}

// computeLBD counts the number of distinct decision levels among lits,
// using a generation-stamped scratch array to avoid allocation on the
// per-conflict path.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdGen++
	var n int32
	for _, l := range lits {
		lev := int(s.level[l.Var()])
		for lev >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lev] != s.lbdGen {
			s.lbdStamp[lev] = s.lbdGen
			n++
		}
	}
	return n
}

// clauseLits copies clause ref's literals into the solver's proof
// scratch buffer (for DRAT deletion lines, which need []Lit).
func (s *Solver) clauseLits(ref ClauseRef) []Lit {
	buf := s.proofBuf[:0]
	for _, w := range s.ca.lits(ref) {
		buf = append(buf, Lit(w))
	}
	s.proofBuf = buf
	return buf
}

// reduceDB removes roughly half of the learnt clauses, preferring high
// LBD and low activity, and never touching reason ("locked") clauses
// or binary clauses. Binary learnts live outside s.learnts but count
// towards the half, as glue clauses that would sort last and be kept.
// Deleted clauses become arena garbage; once a fifth of the arena is
// garbage it is compacted in place.
func (s *Solver) reduceDB() {
	ca := &s.ca
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		albd, blbd := ca.lbd(a), ca.lbd(b)
		if (albd > 2) != (blbd > 2) {
			return blbd > 2 // glue clauses last (kept)
		}
		return ca.act(a) < ca.act(b)
	})
	extLim := s.claInc / float64(s.NumLearnts()+1)
	j := 0
	limit := s.NumLearnts() / 2
	for i, ref := range s.learnts {
		removable := !s.locked(ref) &&
			(i < limit || float64(ca.act(ref)) < extLim) && ca.lbd(ref) > 2
		if removable {
			s.detach(ref)
			if s.proof != nil {
				s.proof.deleteClause(s.clauseLits(ref))
			}
			ca.free(ref)
			s.Stats.Removed++
		} else {
			s.learnts[j] = ref
			j++
		}
	}
	s.learnts = s.learnts[:j]
	if ca.needsCompaction() {
		s.garbageCollect()
	}
}

func (s *Solver) locked(ref ClauseRef) bool {
	first := Lit(s.ca.lits(ref)[0])
	return s.reason[first.Var()] == ref && s.value(first) == lTrue
}

// cancelled reports whether the running solve's context is done. The
// receive never blocks, and a nil done channel is never ready.
func (s *Solver) cancelled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// snapshotStats returns the cumulative counters plus the current
// learnt-DB size and trail depth, the payload of a Progress callback.
func (s *Solver) snapshotStats() Stats {
	st := s.Stats
	st.LearntDB = s.NumLearnts()
	st.TrailDepth = len(s.trail)
	return st
}

// poll fires the Progress callback and checks for cancellation once a
// decision or propagation interval has elapsed. It returns true when
// the solve has been cancelled.
func (s *Solver) poll() (cancelled bool) {
	if s.Stats.Decisions < s.pollDecisions && s.Stats.Propagations < s.pollPropagations {
		return false
	}
	s.pollDecisions = s.Stats.Decisions + progressDecisionInterval
	s.pollPropagations = s.Stats.Propagations + progressPropagationInterval
	if s.opts.Progress != nil {
		s.opts.Progress(s.snapshotStats())
	}
	return s.cancelled()
}

// search runs CDCL for at most nofConflicts conflicts and returns the
// status (Unknown means "restart budget exhausted").
func (s *Solver) search(nofConflicts int64) Status {
	var conflictC int64
	for {
		if s.poll() {
			return Unknown
		}
		confl := s.propagate()
		if confl != RefUndef {
			s.Stats.Conflicts++
			conflictC++
			if s.decisionLevel() == 0 {
				if s.proof != nil {
					s.proof.addClause(nil)
				}
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if s.proof != nil {
				s.proof.addClause(learnt)
			}
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], RefUndef)
				if s.opts.Exchange != nil {
					s.opts.Exchange.Learnt(learnt, 1)
				}
			} else {
				lbd := s.computeLBD(learnt)
				if len(learnt) == 2 {
					s.bins.add(learnt[0], learnt[1])
					s.binLearnts++
					s.uncheckedEnqueue(learnt[0], binRef(learnt[1]))
				} else {
					ref := s.ca.alloc(learnt, true, lbd)
					s.learnts = append(s.learnts, ref)
					s.attach(ref)
					s.claBumpActivity(ref)
					s.uncheckedEnqueue(learnt[0], ref)
				}
				s.Stats.Learnt++
				if s.opts.Exchange != nil {
					s.opts.Exchange.Learnt(learnt, lbd)
				}
			}
			s.varDecayActivity()
			s.claDecayActivity()
			if s.Stats.Conflicts&1023 == 0 && s.cancelled() {
				return Unknown
			}
			continue
		}
		// No conflict.
		if conflictC >= nofConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.opts.ConflictBudget > 0 && s.Stats.Conflicts-s.conflictBase >= s.opts.ConflictBudget {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(s.NumLearnts())-float64(len(s.trail)) >= s.maxLearnts {
			s.reduceDB()
		}
		// Establish the assumption decision levels before any search
		// decision: assumption i always sits at decision level i+1, so
		// backtracking below an assumption simply re-enqueues it here.
		next := LitUndef
		for next == LitUndef && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already implied: open a dummy decision level so the
				// remaining assumptions keep their positional levels.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
				s.Stats.Decisions++
			}
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				return Sat
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, RefUndef)
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// scaled by y.
func luby(y float64, i int64) float64 {
	// Find the finite subsequence containing index i, and its position.
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) >> 1
		seq--
		i = i % size
	}
	return math.Pow(y, float64(seq))
}

// Solve decides the clause database conjoined with the assumption
// literals, which hold for this call only (see incremental.go). It
// returns Sat, Unsat, or Unknown once Options.ConflictBudget is spent
// or ctx is cancelled; a context already cancelled at entry gives
// Unknown at once. After Sat, Model holds an assignment satisfying the
// database and every assumption; after Unsat, FailedAssumptions reports
// which assumptions, if any, were to blame.
//
// Solve always returns with the trail unwound to decision level 0, so
// the caller may add clauses and solve again: learnt clauses, activity,
// phases and statistics carry over, and a cancelled call leaves the
// solver usable for the next one.
func (s *Solver) Solve(ctx context.Context, assumps ...Lit) Status {
	if ctx.Err() != nil {
		return Unknown
	}
	// Only the done channel is kept, and only for this call, so a pooled
	// solver never holds on to a caller's context.
	s.done = ctx.Done()
	defer func() { s.done = nil }()
	s.model = nil
	s.conflictCore = nil
	s.assumptions = s.assumptions[:0]
	for _, p := range assumps {
		s.ensureVars(int(p.Var()) + 1)
		s.assumptions = append(s.assumptions, p)
	}
	if !s.ok {
		if s.proof != nil {
			s.proof.addClause(nil)
			s.flushProof()
		}
		return Unsat
	}
	defer s.flushProof()
	defer s.cancelUntil(0)
	s.maxLearnts = math.Max(float64(s.NumClauses())*0.33, 5000)
	if s.opts.LearntLimit > 0 {
		s.maxLearnts = float64(s.opts.LearntLimit)
	}
	s.pollDecisions = s.Stats.Decisions + progressDecisionInterval
	s.pollPropagations = s.Stats.Propagations + progressPropagationInterval
	s.conflictBase = s.Stats.Conflicts
	var curRestarts int64
	for {
		if s.cancelled() {
			return Unknown
		}
		base := s.opts.RestartBase
		if base == 0 {
			base = defaultRestartBase
		}
		var budget int64
		if s.opts.GeometricRestarts {
			budget = int64(float64(base) * math.Pow(1.5, float64(curRestarts)))
		} else {
			budget = int64(luby(2, curRestarts) * float64(base))
		}
		status := s.search(budget)
		switch status {
		case Sat:
			s.model = make([]bool, len(s.assigns))
			for v := range s.assigns {
				s.model[v] = s.assigns[v] == lTrue
			}
			return Sat
		case Unsat:
			// A nil failed-assumption core means the clause database
			// itself is refuted; with a core, only the assumptions are
			// to blame and the solver stays usable.
			if s.conflictCore == nil {
				s.ok = false
			}
			return Unsat
		}
		if s.opts.ConflictBudget > 0 && s.Stats.Conflicts-s.conflictBase >= s.opts.ConflictBudget {
			return Unknown
		}
		curRestarts++
		s.Stats.Restarts++
		s.maxLearnts *= 1.05
		// LearntLimit is a hard ceiling: geometric growth of the
		// deletion threshold must not drift past the configured cap.
		if lim := s.opts.LearntLimit; lim > 0 && s.maxLearnts > float64(lim) {
			s.maxLearnts = float64(lim)
		}
		// Restart boundary: publish buffered learnt clauses and import
		// foreign ones. Guarded against the cancelled-search path, which
		// is the one way search returns Unknown above decision level 0.
		if s.opts.Exchange != nil && !s.cancelled() && s.decisionLevel() == 0 {
			if !s.exchangeAtRestart() {
				return Unsat
			}
		}
		if s.opts.Progress != nil {
			s.opts.Progress(s.snapshotStats())
		}
	}
}

// Model returns the satisfying assignment found by the last successful
// Solve: Model()[v] is the value of variable v. It returns nil if no
// model is available.
func (s *Solver) Model() []bool { return s.model }

// NumClauses returns the number of problem clauses currently stored
// (after level-0 simplification during AddClause), binary ones
// included.
func (s *Solver) NumClauses() int { return len(s.clauses) + s.binClauses }

// flushProof flushes any pending proof output. The flush error, if
// any, is reported by ProofError.
func (s *Solver) flushProof() {
	if s.proof != nil {
		s.proof.flush()
	}
}

// ProofError returns the first error encountered while writing the
// DRAT proof, or nil. Callers that rely on certificates should check
// it after Solve.
func (s *Solver) ProofError() error {
	if s.proof == nil {
		return nil
	}
	if s.proof.err != nil {
		return s.proof.err
	}
	return s.proof.flush()
}
