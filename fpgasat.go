package fpgasat

// This file is the public API of the module: a facade over the
// internal packages, so that downstream users can drive the complete
// flow — netlist → global routing → conflict graph → CSP-to-SAT
// encoding → CDCL solving → verified detailed routing — through one
// import. The examples/ directory shows it in use; the internal
// packages remain the implementation.

import (
	"context"
	"io"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
	"fpgasat/internal/share"
	"fpgasat/internal/symmetry"
)

// Re-exported types. Aliases keep the full method sets of the
// underlying implementations.
type (
	// Graph is an undirected conflict graph: vertices are 2-pin nets,
	// edges are track-exclusivity constraints. It is immutable CSR
	// (compressed sparse row) storage — build one with GraphBuilder or
	// GraphFromEdgeStream.
	Graph = graph.Graph
	// GraphBuilder is the mutable construction side of Graph: an edge
	// list to AddEdge / AddWeightedEdge into, then Freeze() into the
	// immutable CSR form every consumer reads.
	GraphBuilder = graph.Builder

	// CSP is a graph-coloring constraint-satisfaction problem with
	// per-vertex color domains.
	CSP = core.CSP
	// Encoding translates CSP variables to Boolean variables, cubes
	// and structural clauses (the paper's contribution).
	Encoding = core.Encoding
	// Level is one partition level of a hierarchical encoding.
	Level = core.Level
	// Kind identifies a simple encoding (log, direct, muldirect,
	// ITE-linear, ITE-log).
	Kind = core.Kind
	// Cube is an indexing Boolean pattern.
	Cube = core.Cube
	// Encoded is a CSP translated to CNF, ready to solve and decode.
	Encoded = core.Encoded
	// Strategy pairs an encoding with a symmetry-breaking heuristic;
	// Strategy.Solve streams its encoding into a solver and decides one
	// coloring.
	Strategy = core.Strategy
	// TreeShape builds arbitrary ITE-tree structures.
	TreeShape = core.TreeShape

	// Heuristic is a symmetry-breaking heuristic (None, B1, S1, C1).
	Heuristic = symmetry.Heuristic

	// CNF is a buffered formula in DIMACS literal convention, its
	// clauses back to back in one literal slab: AddClause appends one,
	// NumClauses, NumLiterals and Clause read them.
	CNF = sat.CNF
	// SolverOptions configure the CDCL solver, including the Progress
	// observability callback (invoked with SolverStats snapshots at
	// restarts and periodically during search).
	SolverOptions = sat.Options
	// SolverStats counts solver work; also the payload of the
	// SolverOptions.Progress callback.
	SolverStats = sat.Stats
	// SolveResult bundles status, model and statistics.
	SolveResult = sat.Result
	// Status is Sat, Unsat or Unknown.
	Status = sat.Status

	// Metrics is the observability registry: named counters, gauges
	// and timers with per-stage spans; see NewMetrics.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry,
	// serializable as JSON (WriteJSON) or a text report (WriteText).
	MetricsSnapshot = obs.Snapshot

	// Arch is an island-style FPGA array.
	Arch = fpga.Arch
	// Pin is a logic-block pin.
	Pin = fpga.Pin
	// Net is a multi-pin net (source first).
	Net = fpga.Net
	// Netlist is a placed circuit.
	Netlist = fpga.Netlist
	// GenParams control the synthetic netlist generator.
	GenParams = fpga.GenParams
	// ScaleParams control the tile-templated scaled-instance generator
	// (see GenerateScaled).
	ScaleParams = fpga.ScaleParams
	// ScaleStats summarize a scaled instance (net/edge counts, clique
	// lower bound, CSR storage size).
	ScaleStats = fpga.ScaleStats
	// RouteOptions configure the negotiated-congestion global router.
	RouteOptions = fpga.RouteOptions
	// GlobalRouting is a netlist with segment-level 2-pin routes.
	GlobalRouting = fpga.GlobalRouting
	// DetailedRouting adds a verified track assignment.
	DetailedRouting = fpga.DetailedRouting

	// Instance is a calibrated benchmark instance.
	Instance = mcnc.Instance
	// PortfolioResult is one strategy's outcome within a portfolio run.
	PortfolioResult = portfolio.Result
	// PortfolioOptions configure a portfolio run: telemetry, paranoid
	// answer verification, per-lane watchdog timeouts, budgeted
	// retries, per-lane seeding and clause sharing (see RunPortfolio).
	PortfolioOptions = portfolio.Options
	// ShareOptions configure the learnt-clause exchange of a clause-
	// sharing portfolio (export filter, ring size, import budget, seed,
	// deterministic replay); set PortfolioOptions.Share to enable it.
	ShareOptions = share.Options
	// ShareStats snapshots clause-exchange activity; the same numbers
	// are published as the portfolio.share.* counters.
	ShareStats = share.Stats

	// PanicError is a panic captured at a supervision boundary
	// (portfolio lane, width-search probe, Session solve), carrying the
	// panic value and its stack; surfaced via PortfolioResult.Err and
	// Session errors instead of crashing the process.
	PanicError = robust.PanicError
	// SoundnessError reports a definite answer that failed paranoid-
	// mode verification, naming the guilty strategy.
	SoundnessError = robust.SoundnessError
	// InputError wraps a parse or validation failure of user-supplied
	// input with its source file and line.
	InputError = robust.InputError

	// Solver is the incremental CDCL solver: load or stream clauses,
	// then call Solve(ctx, assumptions...) repeatedly; learnt clauses,
	// activity and phases carry over between calls.
	Solver = sat.Solver
	// Lit is a solver literal; convert with LitFromDimacs.
	Lit = sat.Lit
	// ClauseSink consumes streamed DIMACS clauses: *CNF buffers them,
	// SolverClauseSink feeds them straight into a Solver.
	ClauseSink = core.ClauseSink
	// StreamedEncoding is the decode bookkeeping of one EncodeCSPInto
	// run (one encoding template per domain size and a first variable
	// per vertex, read through Cube; variable count; clause census).
	StreamedEncoding = core.Streamed
	// IncrementalEncoding is one encode at width K that serves every
	// width in [Lo, K] through selector assumptions.
	IncrementalEncoding = core.Incremental
	// SearchOptions configure the incremental minimum-width search.
	SearchOptions = search.Options
	// SearchResult is the outcome of a minimum-width search.
	SearchResult = search.Result
	// WidthProbe records one width probe within a SearchResult.
	WidthProbe = search.Probe
	// ChiResult is the outcome of FindChi: measured chromatic number
	// plus the heuristic bounds that framed the search.
	ChiResult = search.ChiResult
)

// Solver statuses.
const (
	Sat     = sat.Sat
	Unsat   = sat.Unsat
	Unknown = sat.Unknown
)

// Robustness metric names recorded by hardened portfolio runs (lane
// panics, budgeted retries, paranoid-mode verifications, watchdog
// abandonments). Registries create metrics lazily, so tools that dump
// snapshots should touch these counters up front to make zero values
// visible.
const (
	MetricPortfolioPanics = portfolio.MetricPanics
	MetricRetries         = portfolio.MetricRetries
	MetricVerifySat       = portfolio.MetricVerifySat
	MetricVerifyUnsat     = portfolio.MetricVerifyUnsat
	MetricAbandoned       = portfolio.MetricAbandoned
)

// Clause-sharing metric names recorded by hardened portfolio runs with
// PortfolioOptions.Share set (see ShareStats for the semantics).
const (
	MetricShareExported   = portfolio.MetricShareExported
	MetricShareFiltered   = portfolio.MetricShareFiltered
	MetricShareDuplicates = portfolio.MetricShareDuplicates
	MetricShareDropped    = portfolio.MetricShareDropped
	MetricShareImported   = portfolio.MetricShareImported
	MetricShareRejected   = portfolio.MetricShareRejected
)

// RobustnessMetricNames lists the robustness counters above, in a
// stable order — convenience for pre-registering them in a registry.
func RobustnessMetricNames() []string {
	return []string{
		MetricPortfolioPanics,
		MetricRetries,
		MetricVerifySat,
		MetricVerifyUnsat,
		MetricAbandoned,
	}
}

// ShareMetricNames lists the clause-sharing counters, in a stable
// order — convenience for pre-registering them in a registry.
func ShareMetricNames() []string {
	return []string{
		MetricShareExported,
		MetricShareFiltered,
		MetricShareDuplicates,
		MetricShareDropped,
		MetricShareImported,
		MetricShareRejected,
	}
}

// Simple encoding kinds.
const (
	KindLog       = core.KindLog
	KindDirect    = core.KindDirect
	KindMuldirect = core.KindMuldirect
	KindITELinear = core.KindITELinear
	KindITELog    = core.KindITELog
)

// Symmetry-breaking heuristics: none, Van Gelder's b1, the paper's s1
// and the clique-seeded extension c1.
const (
	SymmetryNone = symmetry.None
	SymmetryB1   = symmetry.B1
	SymmetryS1   = symmetry.S1
	SymmetryC1   = symmetry.C1
)

// PaperEncodingNames lists the paper's 14 encodings (plus direct).
var PaperEncodingNames = core.PaperEncodingNames

// BandwidthEncodingNames lists the encodings of the bandwidth-coloring
// (distance-constraint) study: the order/ladder encoding plus the
// distance-aware direct and log encodings.
var BandwidthEncodingNames = core.BandwidthEncodingNames

// NewOrder returns the order (ladder) encoding: value v is represented
// by the unary threshold variables ge_i ≡ (v ≥ i), the natural home of
// distance constraints |c(u)−c(v)| ≥ d. Also reachable as "order" or
// "ladder" through EncodingByName and ParseStrategy.
func NewOrder() Encoding { return core.NewOrder() }

// EncodingByName returns an encoding by its paper-style name, e.g.
// "ITE-linear-2+muldirect".
func EncodingByName(name string) (Encoding, error) { return core.ByName(name) }

// NewSimple returns a simple encoding of the given kind.
func NewSimple(kind Kind) Encoding { return core.NewSimple(kind) }

// NewHierarchical composes partition levels with a leaf kind (Sect. 4
// of the paper).
func NewHierarchical(levels []Level, leaf Kind) (Encoding, error) {
	return core.NewHierarchical(levels, leaf)
}

// NewITETree builds an encoding from an arbitrary ITE-tree shape
// (Sect. 3). LinearShape and BalancedShape are predefined.
func NewITETree(name string, shape TreeShape) Encoding { return core.NewITETree(name, shape) }

// Predefined ITE-tree shapes.
var (
	LinearShape   = core.LinearShape
	BalancedShape = core.BalancedShape
)

// ParseStrategy parses "encoding" or "encoding/heuristic".
func ParseStrategy(spec string) (Strategy, error) { return core.ParseStrategy(spec) }

// NewCSP builds a k-coloring CSP over g with full domains.
func NewCSP(g *Graph, k int) *CSP { return core.NewCSP(g, k) }

// EncodeCSP translates a CSP to CNF under an encoding.
func EncodeCSP(csp *CSP, enc Encoding) *Encoded { return core.Encode(csp, enc) }

// EncodeCSPInto streams the CSP's clauses under an encoding into a
// ClauseSink — with SolverClauseSink the hot path skips the
// intermediate CNF copy entirely.
func EncodeCSPInto(csp *CSP, enc Encoding, sink ClauseSink) *StreamedEncoding {
	return core.EncodeInto(csp, enc, sink)
}

// EncodeIncrementalCSP encodes the CSP once at its full width with
// selector-guarded color bounds, so one solver serves every width in
// [lo, csp.K] via IncrementalEncoding.Assumptions.
func EncodeIncrementalCSP(csp *CSP, enc Encoding, lo int, sink ClauseSink) *IncrementalEncoding {
	return core.EncodeIncremental(csp, enc, lo, sink)
}

// NewSolver returns an empty incremental CDCL solver.
func NewSolver(opts SolverOptions) *Solver { return sat.New(opts) }

// SolverClauseSink adapts a Solver to the ClauseSink streaming
// interface.
func SolverClauseSink(s *Solver) ClauseSink { return sat.SolverSink{S: s} }

// LitFromDimacs converts a DIMACS literal (±variable index) to a
// solver literal, e.g. for a Solver.Solve assumption.
func LitFromDimacs(d int) Lit { return sat.LitFromDimacs(d) }

// FindChi measures the chromatic number (exact minimum channel width)
// of a conflict graph with the incremental width search framed by the
// greedy-clique and DSATUR bounds, racing the strategies if more than
// one is given. Session.MinWidth runs the search over a range of your
// choosing instead.
func FindChi(ctx context.Context, g *Graph, strategies []Strategy, probeTimeout time.Duration, m *Metrics) (ChiResult, error) {
	return search.FindChi(ctx, g, strategies, probeTimeout, m)
}

// Generate builds a deterministic random placed netlist.
func Generate(name string, p GenParams) (*Netlist, error) { return fpga.Generate(name, p) }

// GenerateScaled instantiates interned switch-block templates across an
// R×C fabric and streams the resulting conflict graph straight into CSR
// storage — routing instances with 10⁵–10⁶ nets, generated in
// milliseconds, with a known minimum channel width at full utilization.
func GenerateScaled(p ScaleParams) (*Graph, ScaleStats, error) { return fpga.GenerateScaled(p) }

// ScaledFabric returns the canonical scale-study parameters for a scale
// factor (square fabric, side ∝ √factor, channel width 8).
func ScaledFabric(factor int) ScaleParams { return fpga.ScaledFabric(factor) }

// NewGraphBuilder returns a mutable graph builder with n vertices;
// Freeze() it into an immutable CSR Graph.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdgeStream builds a CSR Graph in two passes over a
// deterministic edge stream, with no intermediate edge list — the
// cheapest way to materialize a large generated graph. Each emitted
// edge carries a distance d ≥ 1: 1 is the classic disequality edge,
// larger values make a bandwidth-coloring instance. Duplicates merge to
// the larger distance, and an all-1 stream yields an unweighted graph.
func GraphFromEdgeStream(n int, stream func(emit func(u, v, d int))) *Graph {
	return graph.FromEdgeStream(n, stream)
}

// RouteGlobal computes a global routing with negotiated congestion.
// The boolean reports whether the occupancy target was met.
func RouteGlobal(nl *Netlist, opts RouteOptions) (*GlobalRouting, bool, error) {
	return fpga.RouteGlobal(nl, opts)
}

// AssignTracks turns a conflict-graph coloring into a verified
// detailed routing with w tracks.
func AssignTracks(gr *GlobalRouting, colors []int, w int) (*DetailedRouting, error) {
	return fpga.AssignTracks(gr, colors, w)
}

// Benchmarks returns the calibrated MCNC-style instances.
func Benchmarks() []Instance { return mcnc.Instances() }

// BenchmarkByName looks up one benchmark instance.
func BenchmarkByName(name string) (Instance, error) { return mcnc.ByName(name) }

// NewMetrics returns an empty observability registry to pass to the
// Metrics fields of PortfolioOptions and SearchOptions and to
// instrumented pipeline stages.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// SolveCNFContext runs the CDCL solver on a formula. The solve returns
// Unknown promptly once ctx is cancelled or its deadline passes.
func SolveCNFContext(ctx context.Context, c *CNF, opts SolverOptions) SolveResult {
	return sat.SolveCNFContext(ctx, c, opts)
}

// RunPortfolio solves the k-coloring of g with all strategies in
// parallel, first definite answer wins (Sect. 6); ctx bounds the run.
// opts adds telemetry, panic-isolated lanes, answer self-checking
// ("paranoid mode"), per-lane watchdog timeouts, budgeted retries and
// clause sharing; its zero value is the plain race.
func RunPortfolio(ctx context.Context, g *Graph, k int, strategies []Strategy, opts PortfolioOptions) (PortfolioResult, []PortfolioResult, error) {
	return portfolio.Run(ctx, g, k, strategies, opts)
}

// PaperPortfolio3 returns the paper's three-strategy portfolio.
func PaperPortfolio3() ([]Strategy, error) { return portfolio.PaperPortfolio3() }

// BandwidthPortfolio returns the lane set for bandwidth-coloring
// instances (order, distance-aware direct and log; no symmetry
// breaking, which is unsound under distance constraints).
func BandwidthPortfolio() ([]Strategy, error) { return portfolio.BandwidthPortfolio() }

// PaperPortfolio2 returns the paper's two-strategy portfolio (the
// first two members of PaperPortfolio3).
func PaperPortfolio2() ([]Strategy, error) { return portfolio.PaperPortfolio2() }

// MustStrategies unwraps a (strategies, error) pair, panicking on
// error — for examples and tests with compile-time-constant specs.
func MustStrategies(ss []Strategy, err error) []Strategy { return portfolio.Must(ss, err) }

// ReplicateStrategies expands each strategy into n interleaved copies —
// the lane set for a clause-sharing portfolio, where same-strategy
// lanes diversify by seed and exchange learnt clauses.
func ReplicateStrategies(ss []Strategy, n int) []Strategy { return portfolio.Replicate(ss, n) }

// VerifyColoring checks that colors is a proper k-coloring of g.
func VerifyColoring(g *Graph, colors []int, k int) error {
	return coloring.Verify(g, colors, k)
}

// DSATUR is the saturation-degree heuristic baseline: it returns a
// proper coloring and the number of colors used (an upper bound on the
// minimum channel width, with no optimality guarantee).
func DSATUR(g *Graph) ([]int, int) { return coloring.DSATUR(g) }

// WriteGraphDIMACS writes g in the DIMACS edge (.col) format.
func WriteGraphDIMACS(w io.Writer, g *Graph, comments ...string) error {
	return graph.WriteDIMACS(w, g, comments...)
}

// ParseGraphDIMACS reads a DIMACS edge-format graph of at most
// graph.MaxParseVertices vertices.
func ParseGraphDIMACS(r io.Reader) (*Graph, error) {
	return graph.ParseDIMACS(r, graph.MaxParseVertices)
}

// WriteCNFDIMACS writes a formula in DIMACS CNF format.
func WriteCNFDIMACS(w io.Writer, c *CNF) error { return sat.WriteDIMACS(w, c) }

// ParseCNFDIMACS reads a DIMACS CNF file.
func ParseCNFDIMACS(r io.Reader) (*CNF, error) { return sat.ParseDIMACS(r) }

// CheckDRAT verifies a DRAT unsatisfiability proof (produced via
// SolverOptions.ProofWriter) against the original formula, returning
// nil for a valid refutation — a machine-checkable unroutability
// certificate.
func CheckDRAT(c *CNF, proof io.Reader) error { return sat.CheckDRAT(c, proof) }
