// Command fpgasat is the end-to-end SAT-based FPGA detailed router:
// it generates (or looks up) a benchmark netlist, computes a global
// routing, translates the detailed-routing problem to graph coloring
// and then to CNF under a chosen encoding/symmetry strategy, runs the
// CDCL solver, and either prints the detailed routing (track
// assignment) or reports a proof of unroutability. With -graph it
// starts from a conflict graph in DIMACS edge format instead, the
// second step of the paper's tool flow on its own.
//
// Usage:
//
//	fpgasat -instance vda -w 7 -strategy ITE-linear-2+muldirect/s1
//	fpgasat -instance alu2 -findmin             # minimum channel width
//	fpgasat -instance k2 -w 8 -col out.col      # emit DIMACS graph
//	fpgasat -instance k2 -w 8 -cnf out.cnf      # emit DIMACS CNF
//	fpgasat -graph out.col -w 8 -cnf f.cnf      # .col -> .cnf (and solve)
//	fpgasat -instance apex7 -w 8 -tracks        # print track assignment
//	fpgasat -instance alu2 -portfolio           # paper's 3-strategy portfolio
//	fpgasat -instance alu2 -trace               # per-stage timing report
//	fpgasat -instance alu2 -metrics-out m.json  # dump metrics as JSON
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"fpgasat"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
)

// reg collects per-stage spans (pipeline.translate / solve / decode),
// solver progress gauges and, in -portfolio mode, the
// per-strategy portfolio telemetry. It is dumped by -trace and
// -metrics-out.
var reg = obs.NewRegistry()

// session owns the process-wide solver pool: plain solves and
// portfolio lanes draw arena-backed solvers from it, and its
// sat.reset.* / sat.arena.* gauges land in reg.
var session = fpgasat.NewSession(reg)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpgasat: ")
	os.Exit(run())
}

// errUndecided ends a run without a definite answer. Its outcome line
// is already printed, so run exits 1 without logging it.
var errUndecided = errors.New("undecided")

// run routes one problem and returns the exit status: 0 for a definite
// answer, 1 for an undecided run or a failure, 2 for a bad command
// line. The -trace / -metrics-out report is deferred, so every outcome
// gets it.
func run() (status int) {
	var (
		instName     = flag.String("instance", "alu2", "benchmark instance name (see -list)")
		netFile      = flag.String("netlist", "", "route an external netlist file instead of a benchmark instance")
		rtFile       = flag.String("routing", "", "use an external global-routing file (requires -netlist)")
		graphFile    = flag.String("graph", "", "solve a conflict graph in DIMACS edge format (.col) instead of routing an instance")
		list         = flag.Bool("list", false, "list available instances and exit")
		w            = flag.Int("w", 0, "channel width W (default: the instance's routable width; required with -netlist and -graph)")
		strategy     = flag.String("strategy", "ITE-linear-2+muldirect/s1", "encoding[/heuristic]: the encoding is order or one of "+strings.Join(core.PaperEncodingNames, ", ")+"; the heuristic is -, b1, s1 or c1")
		usePortfolio = flag.Bool("portfolio", false, "solve with the paper's 3-strategy portfolio instead of -strategy")
		findMin      = flag.Bool("findmin", false, "find the minimum routable channel width")
		colOut       = flag.String("col", "", "write the conflict graph in DIMACS edge format to this file")
		cnfOut       = flag.String("cnf", "", "write the CNF in DIMACS format to this file")
		tracks       = flag.Bool("tracks", false, "print the full track assignment when routable")
		proof        = flag.String("proof", "", "on UNROUTABLE, write a DRAT unroutability certificate here and verify it")
		timeout      = flag.Duration("timeout", 5*time.Minute, "solve timeout (0 = none)")
		trace        = flag.Bool("trace", false, "print the per-stage (and per-strategy) timing report")
		metricsOut   = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file")
		verify       = flag.Bool("verify", false, "paranoid mode: re-verify Sat answers against the conflict graph and replay Unsat answers through the DRAT checker (with -portfolio)")
		laneTimeout  = flag.Duration("lane-timeout", 0, "per-lane attempt timeout and watchdog grace period for -portfolio (0 = none)")
		maxRetries   = flag.Int("max-retries", 0, "re-run a budget-exhausted portfolio lane up to this many times with escalated budgets")
		shareOn      = flag.Bool("share", false, "with -portfolio: replicate each strategy into -share-lanes seeded lanes exchanging learnt clauses")
		shareLanes   = flag.Int("share-lanes", 2, "with -share: same-strategy lanes per portfolio member")
		seed         = flag.Int64("seed", 0, "diversification seed for -portfolio lanes (0 = unseeded; -share defaults it to 1)")
	)
	flag.Parse()

	if *list {
		for _, name := range mcnc.Names() {
			in, _ := mcnc.ByName(name)
			fmt.Printf("%-10s %2dx%-2d %4d nets  routable W=%d\n",
				in.Name, in.Gen.Cols, in.Gen.Rows, in.Gen.NumNets, in.RoutableW)
		}
		return 0
	}
	usage := func(msg string) int {
		log.Print(msg)
		return 2
	}
	s, err := core.ParseStrategy(*strategy)
	if err != nil {
		return usage(err.Error())
	}
	switch {
	case *netFile != "" && *graphFile != "":
		return usage("-netlist and -graph are alternative inputs; give one")
	case (*netFile != "" || *graphFile != "") && *w == 0:
		return usage("-w is required with -netlist and -graph")
	case *graphFile != "" && *tracks:
		return usage("-tracks needs a routing, and -graph input has none")
	}
	fail := func(err error) int {
		log.Print(err)
		return 1
	}
	defer func() {
		if err := dumpMetrics(*trace, *metricsOut); err != nil {
			log.Print(err)
			status = 1
		}
	}()

	start := time.Now()
	span := reg.StartSpan("pipeline.translate")
	// gr stays nil for -graph input: there is no routing to report on
	// or to decode a coloring into.
	var gr *fpga.GlobalRouting
	var g *graph.Graph
	name := *instName
	switch {
	case *graphFile != "":
		if g, err = readGraph(*graphFile); err != nil {
			return fail(err)
		}
		name = *graphFile
	case *netFile != "":
		if gr, err = loadExternal(*netFile, *rtFile); err != nil {
			return fail(err)
		}
		name = gr.Netlist.Name
		g = gr.ConflictGraph()
	default:
		in, err := mcnc.ByName(*instName)
		if err != nil {
			return fail(err)
		}
		if *w == 0 {
			*w = in.RoutableW
		}
		// Build returns the instance's conflict graph with crosstalk
		// distances applied; recomputing it via ConflictGraph() would
		// silently drop them.
		if gr, g, err = in.Build(); err != nil {
			return fail(err)
		}
	}
	span.End()
	if gr != nil {
		fmt.Printf("instance %s: %dx%d array, %d nets, %d 2-pin nets\n",
			name, gr.Netlist.Arch.Cols, gr.Netlist.Arch.Rows, len(gr.Netlist.Nets), len(gr.Routes))
		fmt.Printf("conflict graph: %d vertices, %d edges, max congestion %d (translate %v)\n",
			g.N(), g.M(), gr.MaxCongestion(), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("conflict graph %s: %d vertices, %d edges (read %v)\n",
			name, g.N(), g.M(), time.Since(start).Round(time.Millisecond))
	}

	if *colOut != "" {
		if err := writeFile(*colOut, func(f io.Writer) error {
			return graph.WriteDIMACS(f, g, "conflict graph of instance "+name)
		}); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote conflict graph to %s\n", *colOut)
	}

	switch {
	case *findMin:
		err = findMinimum(g, s, *timeout)
	case *usePortfolio:
		opts := fpgasat.PortfolioOptions{
			Verify:      *verify,
			LaneTimeout: *laneTimeout,
			MaxRetries:  *maxRetries,
			Seed:        *seed,
		}
		if *shareOn {
			opts.Share = &fpgasat.ShareOptions{}
		}
		err = runPortfolio(gr, g, *w, *timeout, *tracks, *shareLanes, opts)
	default:
		err = solveSingle(gr, g, *w, s, *timeout, *tracks, *cnfOut, *proof)
	}
	switch {
	case errors.Is(err, errUndecided):
		return 1
	case err != nil:
		return fail(err)
	}
	return 0
}

// solveSingle solves width w with one strategy on a pooled session
// solver and prints the outcome. -cnf and -proof also build the
// buffered formula: to write it out, and to check the solver's DRAT log
// against it on Unsat.
func solveSingle(gr *fpga.GlobalRouting, g *graph.Graph, w int, s core.Strategy, timeout time.Duration, tracks bool, cnfOut, proof string) error {
	var cnf *sat.CNF
	if cnfOut != "" || proof != "" {
		cnf = s.EncodeGraph(g, w).CNF
	}
	if cnfOut != "" {
		if err := writeFile(cnfOut, func(f io.Writer) error { return sat.WriteDIMACS(f, cnf) }); err != nil {
			return err
		}
		fmt.Printf("wrote CNF to %s (%d vars, %d clauses)\n", cnfOut, cnf.NumVars, cnf.NumClauses())
	}
	opts := solverOptions()
	var proofFile *os.File
	if proof != "" {
		var err error
		if proofFile, err = os.Create(proof); err != nil {
			return err
		}
		defer proofFile.Close()
		opts.ProofWriter = proofFile
	}
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	start := time.Now()
	span := reg.StartSpan("pipeline.solve")
	st, colors, err := session.SolveGraph(ctx, g, w, s, opts)
	span.End()
	if err != nil {
		return err
	}
	fmt.Printf("SAT solve: %v (streamed into pooled solver) -> %v\n",
		time.Since(start).Round(time.Millisecond), st)
	if proofFile != nil {
		if err := proofFile.Close(); err != nil {
			return err
		}
		if st == sat.Unsat {
			pf, err := os.Open(proof)
			if err != nil {
				return err
			}
			err = sat.CheckDRAT(cnf, pf)
			pf.Close()
			if err != nil {
				return fmt.Errorf("unroutability certificate failed verification: %w", err)
			}
			fmt.Printf("unroutability certificate written to %s and verified (DRAT)\n", proof)
		}
	}
	switch st {
	case sat.Sat:
		return routed(gr, colors, w, tracks, "strategy "+s.Name())
	case sat.Unsat:
		fmt.Printf("UNROUTABLE with W=%d tracks — proven by %s\n", w, s.Name())
		return nil
	default:
		fmt.Printf("UNDECIDED within %v\n", timeout)
		return errUndecided
	}
}

// withTimeout returns a context that expires after d, or never when d
// is 0.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// routed reports a routable width: it decodes the coloring into a
// track assignment (printed with -tracks) and names the prover. Input
// from -graph has no routing to decode; its coloring was already
// verified against the graph.
func routed(gr *fpga.GlobalRouting, colors []int, w int, tracks bool, by string) error {
	var dr *fpga.DetailedRouting
	if gr != nil {
		span := reg.StartSpan("pipeline.decode")
		var err error
		dr, err = fpga.AssignTracks(gr, colors, w)
		span.End()
		if err != nil {
			return fmt.Errorf("decoded routing invalid: %w", err)
		}
	}
	fmt.Printf("ROUTABLE with W=%d tracks (%s)\n", w, by)
	if tracks {
		fmt.Print(fpga.RenderTracks(dr))
	}
	return nil
}

// solverOptions wires the solver's Progress hook into the metrics
// registry so the last restart snapshot is visible in the report.
func solverOptions() sat.Options {
	conflicts := reg.Gauge("solver.conflicts")
	propagations := reg.Gauge("solver.propagations")
	restarts := reg.Gauge("solver.restarts")
	learntDB := reg.Gauge("solver.learnt_db")
	trailDepth := reg.Gauge("solver.trail_depth")
	return sat.Options{
		Progress: func(st sat.Stats) {
			conflicts.Set(st.Conflicts)
			propagations.Set(st.Propagations)
			restarts.Set(st.Restarts)
			learntDB.Set(int64(st.LearntDB))
			trailDepth.Set(int64(st.TrailDepth))
		},
	}
}

// runPortfolio solves with the paper's 3-strategy portfolio, printing
// the per-strategy telemetry table. The run goes through the hardened
// supervision layer: lanes are panic-isolated, and opts enables
// paranoid answer checking, watchdog timeouts and budgeted retries.
func runPortfolio(gr *fpga.GlobalRouting, g *graph.Graph, w int, timeout time.Duration, tracks bool, shareLanes int, opts fpgasat.PortfolioOptions) error {
	registerRobustnessMetrics()
	if opts.Share != nil {
		for _, name := range fpgasat.ShareMetricNames() {
			reg.Counter(name)
		}
	}
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	members, err := fpgasat.PaperPortfolio3()
	if err != nil {
		return err
	}
	if opts.Share != nil {
		// Clauses only flow between lanes of one strategy, so give every
		// member enough same-strategy peers to make sharing worthwhile.
		members = fpgasat.ReplicateStrategies(members, shareLanes)
	}
	span := reg.StartSpan("pipeline.solve")
	winner, all, err := session.PortfolioHardened(ctx, g, w, members, opts)
	span.End()
	fmt.Println("portfolio strategies:")
	for _, r := range all {
		mark := " "
		if r.Winner {
			mark = "*"
		}
		note := ""
		if r.Attempts > 1 {
			note = fmt.Sprintf(" (%d attempts)", r.Attempts)
		}
		if r.Err != nil {
			note += " err: " + r.Err.Error()
		}
		fmt.Printf("  %s %-28s %-8v encode %-10v solve %-10v %8d vars %8d clauses %8d conflicts%s\n",
			mark, r.Strategy.Name(), r.Status,
			r.EncodeTime.Round(time.Microsecond), r.SolveTime.Round(time.Millisecond),
			r.Vars, r.Clauses, r.Stats.Conflicts, note)
	}
	if err != nil {
		return err
	}
	switch winner.Status {
	case sat.Sat:
		return routed(gr, winner.Colors, w, tracks, "portfolio winner "+winner.Strategy.Name())
	case sat.Unsat:
		fmt.Printf("UNROUTABLE with W=%d tracks — proven by portfolio winner %s\n", w, winner.Strategy.Name())
	}
	return nil
}

// registerRobustnessMetrics touches the robustness counters
// (portfolio.panics, robust.retries, robust.verify.*) so they appear
// in -trace / -metrics-out output even when they stay zero.
func registerRobustnessMetrics() {
	for _, name := range fpgasat.RobustnessMetricNames() {
		reg.Counter(name)
	}
}

// dumpMetrics prints the text report (-trace) and/or writes the JSON
// snapshot (-metrics-out).
func dumpMetrics(trace bool, metricsOut string) error {
	if !trace && metricsOut == "" {
		return nil
	}
	snap := reg.Snapshot()
	if trace {
		fmt.Println("\n── timing report ──")
		if err := snap.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, snap.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote metrics to %s\n", metricsOut)
	}
	return nil
}

// findMinimum performs the paper's optimality flow through FindChi:
// descend from the DSATUR upper bound to the clique lower bound until
// the first unroutable width. The graph is encoded once at the upper
// bound and each width is a single assumption probe, so learnt clauses
// carry over between widths.
func findMinimum(g *graph.Graph, s core.Strategy, timeout time.Duration) error {
	res, err := fpgasat.FindChi(context.Background(), g, []core.Strategy{s}, timeout, reg)
	if err != nil {
		return err
	}
	fmt.Printf("DSATUR upper bound: %d; clique lower bound: %d\n", res.UpperBound, res.LowerBound)
	if res.Search != nil {
		for _, p := range res.Search.Probes {
			fmt.Printf("  probe W=%-3d %-7v %10v %8d conflicts, %d learnt clauses carried in\n",
				p.Width, p.Status, p.Duration.Round(time.Millisecond), p.Conflicts, p.Learnts)
		}
	}
	switch {
	case !res.Proved:
		fmt.Printf("undecided at W=%d; best known routable width: %d\n", res.Chi-1, res.Chi)
		return errUndecided
	case res.Chi == res.LowerBound:
		fmt.Printf("minimum channel width: W=%d (the clique lower bound)\n", res.Chi)
	default:
		fmt.Printf("minimum channel width: W=%d (W=%d proven unroutable)\n", res.Chi, res.Chi-1)
	}
	return nil
}

// loadExternal reads a netlist file and either a companion global-
// routing file or computes a fresh global routing.
func loadExternal(netPath, rtPath string) (*fpga.GlobalRouting, error) {
	nf, err := os.Open(netPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	nl, err := fpga.ParseNetlist(nf)
	if err != nil {
		return nil, err
	}
	if rtPath == "" {
		gr, converged, err := fpga.RouteGlobal(nl, fpga.RouteOptions{})
		if err != nil {
			return nil, err
		}
		if !converged {
			fmt.Println("note: global router did not meet its occupancy target; routing is valid but congested")
		}
		return gr, nil
	}
	rf, err := os.Open(rtPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	return fpga.ParseRouting(rf, nl)
}

// readGraph reads a conflict graph in DIMACS edge format.
func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ParseDIMACS(f, graph.MaxParseVertices)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// writeFile creates path and fills it with write, reporting the Close
// error too: a failed write-back loses the file as surely as a failed
// write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
