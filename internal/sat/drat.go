package sat

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// This file implements DRAT-style unsatisfiability certificates: the
// solver can log every learnt clause (and deletion) to a proof writer,
// and CheckDRAT verifies such a proof against the original formula by
// forward RUP (reverse unit propagation) checking. A checked proof is
// a machine-verifiable certificate that a global routing is
// unroutable — the guarantee the paper's introduction advertises for
// SAT-based detailed routing, made independently auditable.
//
// The format is the standard DRAT text format: one lemma per line as
// DIMACS literals terminated by 0; deletions are prefixed with "d".
// The proof must end with (or at some point derive) the empty clause.

// proofLogger accumulates proof lines efficiently.
type proofLogger struct {
	w   *bufio.Writer
	err error
}

func newProofLogger(w io.Writer) *proofLogger {
	return &proofLogger{w: bufio.NewWriter(w)}
}

func (p *proofLogger) addClause(lits []Lit) {
	if p.err != nil {
		return
	}
	for _, l := range lits {
		if _, err := p.w.WriteString(strconv.Itoa(l.Dimacs())); err != nil {
			p.err = err
			return
		}
		p.w.WriteByte(' ')
	}
	_, p.err = p.w.WriteString("0\n")
}

func (p *proofLogger) deleteClause(lits []Lit) {
	if p.err != nil {
		return
	}
	if _, err := p.w.WriteString("d "); err != nil {
		p.err = err
		return
	}
	p.addClause(lits)
}

func (p *proofLogger) flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// checker is a self-contained unit-propagation engine over an
// evolving clause database, used by CheckDRAT. It is deliberately
// independent of Solver so the certificate check does not trust the
// code being certified.
type checker struct {
	clauses map[int][]int // id -> literals
	nextID  int
	// occur[lit] lists the ids of the clauses containing lit, so
	// propagation revisits a clause only when one of its literals
	// becomes false. units lists the clauses with at most one distinct
	// literal, which propagate before anything is assigned. Deletion
	// leaves stale ids in both; rup drops them as it meets them.
	occur map[int][]int
	units []int
	// sorted is remove's buffer for a candidate's sorted literals.
	sorted []int
	// assign holds each variable's value during a rup check: 1 true, -1
	// false, 0 unassigned. trail lists the literals rup made true, in
	// order: propagation reads it as its queue, and rup clears just their
	// variables before it returns. Both are reused across lemmas.
	assign []int8
	trail  []int
}

func newChecker(cnf *CNF) *checker {
	c := &checker{
		clauses: map[int][]int{},
		occur:   map[int][]int{},
		assign:  make([]int8, cnf.NumVars+1),
	}
	var lits []int
	for i := range cnf.NumClauses() {
		lits = lits[:0]
		for _, l := range cnf.Clause(i) {
			lits = append(lits, int(l))
		}
		c.add(lits)
	}
	return c
}

func (c *checker) add(lits []int) int {
	id := c.nextID
	c.nextID++
	c.clauses[id] = append([]int(nil), lits...)
	unit := true
	for _, l := range lits {
		c.occur[l] = append(c.occur[l], id)
		unit = unit && l == lits[0]
	}
	if unit {
		c.units = append(c.units, id)
	}
	return id
}

// remove deletes one clause whose literals are the same multiset as
// lits, which it sorts in place; DRAT deletion lines identify clauses
// by content.
func (c *checker) remove(lits []int) {
	slices.Sort(lits)
	for id, cl := range c.clauses {
		if len(cl) != len(lits) {
			continue
		}
		c.sorted = append(c.sorted[:0], cl...)
		slices.Sort(c.sorted)
		if slices.Equal(c.sorted, lits) {
			delete(c.clauses, id)
			return
		}
	}
}

// rup reports whether the clause is derivable by reverse unit
// propagation: assuming all its literals false must yield a conflict
// under unit propagation over the current database. Once assign has
// room for the lemma's variables, it allocates nothing.
func (c *checker) rup(lits []int) bool {
	for _, l := range lits {
		if v := abs(l); v >= len(c.assign) {
			c.assign = append(c.assign, make([]int8, v+1-len(c.assign))...)
		}
	}
	defer c.unassign()
	for _, l := range lits {
		if !c.assignLit(-l) {
			return true // the negated clause is self-contradictory
		}
	}
	var confl bool
	if c.units, confl = c.conflictIn(c.units); confl {
		return true
	}
	for i := 0; i < len(c.trail); i++ {
		ids, ok := c.occur[-c.trail[i]]
		if !ok {
			continue
		}
		if c.occur[-c.trail[i]], confl = c.conflictIn(ids); confl {
			return true
		}
	}
	return false
}

// value returns 1 if l is true, -1 if it is false and 0 if its variable
// is unassigned.
func (c *checker) value(l int) int8 {
	if l < 0 {
		return -c.assign[-l]
	}
	return c.assign[l]
}

// assignLit makes l true and queues it. It returns false if l is false.
func (c *checker) assignLit(l int) bool {
	switch c.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	if l < 0 {
		c.assign[-l] = -1
	} else {
		c.assign[l] = 1
	}
	c.trail = append(c.trail, l)
	return true
}

// unassign clears the assignments of the last rup check.
func (c *checker) unassign() {
	for _, l := range c.trail {
		c.assign[abs(l)] = 0
	}
	c.trail = c.trail[:0]
}

// conflict reports whether clause cl is falsified, and assigns its open
// literal when it is unit.
func (c *checker) conflict(cl []int) bool {
	open, openCount := 0, 0
	for _, l := range cl {
		switch c.value(l) {
		case 1:
			return false
		case 0:
			// Count distinct literals: a clause that repeats its one
			// open literal is still unit.
			if openCount == 0 || l != open {
				openCount++
			}
			open = l
		}
	}
	switch openCount {
	case 0:
		return true
	case 1:
		c.assignLit(open)
	}
	return false
}

// conflictIn visits the live clauses of ids, returning them with the
// stale ids of deleted clauses dropped.
func (c *checker) conflictIn(ids []int) ([]int, bool) {
	live := ids[:0]
	for i, id := range ids {
		cl, ok := c.clauses[id]
		if !ok {
			continue
		}
		live = append(live, id)
		if c.conflict(cl) {
			return append(live, ids[i+1:]...), true
		}
	}
	return live, false
}

// CheckDRAT verifies a DRAT proof of unsatisfiability for the formula:
// every added lemma must be RUP with respect to the current database,
// and the proof must derive the empty clause. It returns nil for a
// valid refutation.
func CheckDRAT(cnf *CNF, proof io.Reader) error {
	c := newChecker(cnf)
	sc := bufio.NewScanner(proof)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	derivedEmpty := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		del := false
		if strings.HasPrefix(text, "d ") {
			del = true
			text = strings.TrimSpace(text[2:])
		}
		fields := strings.Fields(text)
		var lits []int
		terminated := false
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("sat: proof line %d: bad literal %q", line, f)
			}
			if v == 0 {
				terminated = true
				break
			}
			lits = append(lits, v)
		}
		if !terminated {
			return fmt.Errorf("sat: proof line %d: missing 0 terminator", line)
		}
		if del {
			// Deleting a clause that is not present is tolerated (the
			// solver may delete a clause it strengthened at add time).
			c.remove(lits)
			continue
		}
		if !c.rup(lits) {
			return fmt.Errorf("sat: proof line %d: lemma %v is not RUP", line, lits)
		}
		if len(lits) == 0 {
			derivedEmpty = true
			break
		}
		c.add(lits)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !derivedEmpty {
		return fmt.Errorf("sat: proof does not derive the empty clause")
	}
	return nil
}
