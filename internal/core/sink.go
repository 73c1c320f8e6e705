package core

// ClauseSink consumes CNF clauses in DIMACS convention (positive int =
// variable true, negative = false, no zero terminator). It is the
// streaming side of the encoding pipeline: encodings emit structural,
// conflict and guard clauses into a sink instead of materializing an
// intermediate clause list.
//
// Contract: the literal slice is only valid for the duration of the
// AddClause call — emitters stream clauses from a scratch buffer they
// reuse, so a sink that wants to keep a clause must copy it. (This is
// the memory-model inversion that removes per-clause slice garbage
// from the encode hot path: the common sinks — a solver's watch lists,
// a counting sink — never needed ownership of the slice.) Sinks must
// accept clauses over variables they have not seen before (DIMACS
// indices are allocated densely from 1 by the encoder). A sink may also
// implement DeclareVars(n int): the encoder then calls it once, before
// the first clause, with the formula's variable count, so the sink can
// size its tables once instead of growing them clause by clause. And a
// sink may implement Census(replay func(count func(lits ...int))): the
// encoder then calls it once, after DeclareVars and before the first
// clause, and replay, if the sink calls it, emits every clause of the
// formula into count in stream order, so the sink can size its clause
// storage from what is coming. The two production sinks are *sat.CNF
// (buffering; copies each clause into one literal slab) and
// sat.SolverSink (streams straight into an incremental solver, which
// copies literals into its clause arena and implication lists); both
// take the declaration and the census.
type ClauseSink interface {
	AddClause(lits ...int)
}

// varDeclarer is the optional ClauseSink method that receives the
// formula's variable count before its first clause.
type varDeclarer interface {
	DeclareVars(n int)
}

// clauseCensus is the optional ClauseSink method that receives a replay
// of the formula's clauses before the first one.
type clauseCensus interface {
	Census(replay func(count func(lits ...int)))
}

// emitter produces a formula's clauses, the same ones on every call.
type emitter interface {
	emit(sink ClauseSink)
}

// stream delivers a formula of vars variables, whose clauses f emits,
// to sink: the variable count and the census replay to a sink that
// takes them, then the clauses.
func stream(sink ClauseSink, vars int, f emitter) {
	if vd, ok := sink.(varDeclarer); ok {
		vd.DeclareVars(vars)
	}
	if c, ok := sink.(clauseCensus); ok {
		c.Census(func(count func(lits ...int)) { f.emit(sinkFunc(count)) })
	}
	f.emit(sink)
}

// sinkFunc is a ClauseSink that calls the function.
type sinkFunc func(lits ...int)

func (f sinkFunc) AddClause(lits ...int) { f(lits...) }

// clauseCollector is a ClauseSink that materializes the emitted clauses,
// used by the materializing compatibility wrappers and by tests that
// inspect an encoding's structural clauses directly. Per the sink
// contract it copies every clause.
type clauseCollector struct{ clauses [][]int }

func (c *clauseCollector) AddClause(lits ...int) {
	c.clauses = append(c.clauses, append([]int(nil), lits...))
}

// countingSink forwards clauses to an underlying sink while counting
// them, for the clause counts of the size ablation.
type countingSink struct {
	sink ClauseSink
	n    int
}

func (c *countingSink) AddClause(lits ...int) {
	c.n++
	c.sink.AddClause(lits...)
}

// discardSink drops every clause; used when only the cubes and the
// variable count of an encoding are of interest (DescribeVariable).
type discardSink struct{}

func (discardSink) AddClause(lits ...int) {}

// encodeVar materializes one CSP variable's encoding: the per-value
// cubes plus the structural clauses collected from the sink stream.
// It is the materializing counterpart of Encoding.emitVar, kept for
// tests and introspection.
func encodeVar(e Encoding, d int, a *alloc) ([]Cube, [][]int) {
	var c clauseCollector
	cubes := e.emitVar(d, a, &c)
	return cubes, c.clauses
}
