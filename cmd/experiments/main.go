// Command experiments regenerates the paper's tables and figures on
// the synthetic MCNC-style benchmark suite. Each experiment is
// rendered as Markdown (the same format recorded in EXPERIMENTS.md).
// Three studies maintain the suite itself and are not part of -all:
// -calibrate re-measures every instance's exact minimum channel width,
// -seedscan reproduces the choice of the Table-2 generator seeds, and
// -export writes every instance's .col, .net and .route files.
//
// Usage:
//
//	experiments -table1 -figure1 -table2 -routable -portfolio -sizes
//	experiments -all [-timeout 60s] [-quick] [-v]
//	experiments -calibrate [-metrics-out m.json]
//	experiments -seedscan -timeout 30s
//	experiments -export DIR
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fpgasat"
	"fpgasat/internal/experiments"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/symmetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	os.Exit(run())
}

// run executes the selected studies and returns the exit status: 2 for
// a bad command line, 1 when a study fails, 0 otherwise. The -trace /
// -metrics-out report is deferred, so failed runs get it too.
func run() (status int) {
	var (
		table1     = flag.Bool("table1", false, "reproduce Table 1 (example encodings)")
		figure1    = flag.Bool("figure1", false, "reproduce Figure 1 (ITE trees for 13 values)")
		table2     = flag.Bool("table2", false, "reproduce Table 2 (unroutable configurations)")
		routable   = flag.Bool("routable", false, "reproduce the routable-configuration comparison")
		portfolio  = flag.Bool("portfolio", false, "reproduce the portfolio study")
		sizes      = flag.Bool("sizes", false, "encoding-size ablation")
		solvers    = flag.Bool("solvers", false, "solver-profile comparison (siege vs MiniSat analog)")
		trees      = flag.Bool("trees", false, "ITE-tree shape ablation")
		symAbl     = flag.Bool("symmetry", false, "symmetry-heuristic ablation (-, b1, s1, c1)")
		baselines  = flag.Bool("baselines", false, "one-net-at-a-time baselines vs the SAT flow")
		all        = flag.Bool("all", false, "run every study except -calibrate, -seedscan and -export")
		quick      = flag.Bool("quick", false, "use only the first two benchmarks (smoke test)")
		timeout    = flag.Duration("timeout", 120*time.Second, "per-solve timeout (0 = none)")
		verbose    = flag.Bool("v", false, "print per-solve progress to stderr")
		trace      = flag.Bool("trace", false, "print the collected metrics report after the run")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file")
		instances  = flag.String("instances", "", "load benchmark instances from a registry file instead of the built-in table")
		verify     = flag.Bool("verify", false, "paranoid mode: re-verify Sat answers and replay Unsat answers in portfolio runs")
		laneTO     = flag.Duration("lane-timeout", 0, "per-lane watchdog timeout for portfolio runs (0 = none)")
		maxRetries = flag.Int("max-retries", 0, "budgeted-retry attempts per portfolio lane (0 = no retry)")
		shareCmp   = flag.Bool("share", false, "clause-sharing study: blind vs cooperating replicated-lane portfolio")
		shareLBD   = flag.Int("share-lbd", 4, "with -share: export only learnt clauses with LBD at most this")
		shareMax   = flag.Int("share-max", 8, "with -share: export only learnt clauses with at most this many literals")
		shareLanes = flag.Int("share-lanes", 2, "with -share: same-strategy lanes per run")
		seed       = flag.Int64("seed", 1, "lane diversification seed for the -share study")
		shareReps  = flag.Int("share-repeats", 1, "with -share: repeat each (instance, mode) run over seeds seed..seed+N-1 and sum wall clock")
		benchOut   = flag.String("bench-out", "", "with one of -share, -scale or -bandwidth: write the study as JSON to this file (BENCH_portfolio.json / BENCH_scale.json / BENCH_bandwidth.json format)")
		scaleRun   = flag.Bool("scale", false, "scaling study: generate and encode tile-templated instances far beyond the MCNC suite")
		scaleFacts = flag.String("scale-factors", "1,10,100", "with -scale: comma-separated scale multipliers")
		scaleEnc   = flag.String("scale-encoding", "", "with -scale: encoding to stream (default ITE-linear-2+muldirect)")
		bandwidth  = flag.Bool("bandwidth", false, "bandwidth-coloring study: crosstalk instances solved to their minimum span per encoding")
		calibrate  = flag.Bool("calibrate", false, "re-measure every instance's chromatic number against its RoutableW, with indicative solve times (not in -all)")
		seedScan   = flag.Bool("seedscan", false, "scan 12 generator seeds per Table-2 class for challenging unroutable configurations (not in -all)")
		exportDir  = flag.String("export", "", "write every instance's conflict graph (.col), netlist (.net) and global routing (.route) into this directory (not in -all)")
	)
	flag.Parse()
	if *all {
		*table1, *figure1, *table2, *routable, *portfolio = true, true, true, true, true
		*sizes, *solvers, *trees, *symAbl, *baselines, *shareCmp, *scaleRun, *bandwidth = true, true, true, true, true, true, true, true
	}
	if !*table1 && !*figure1 && !*table2 && !*routable && !*portfolio && !*sizes && !*solvers && !*trees &&
		!*symAbl && !*baselines && !*shareCmp && !*scaleRun && !*bandwidth && !*calibrate && !*seedScan && *exportDir == "" {
		flag.Usage()
		return 2
	}
	benchStudies := 0
	for _, on := range []bool{*shareCmp, *scaleRun, *bandwidth} {
		if on {
			benchStudies++
		}
	}
	if *benchOut != "" && benchStudies > 1 {
		log.Print("-bench-out records one study: select only one of -share, -scale and -bandwidth")
		return 2
	}
	var factors []int
	for _, part := range strings.Split(*scaleFacts, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.Atoi(part)
		if err != nil || f < 1 {
			log.Printf("bad -scale-factors entry %q", part)
			return 2
		}
		factors = append(factors, f)
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	fail := func(err error) int {
		log.Print(err)
		return 1
	}
	// writeBench is the one -bench-out path, shared by the three bench
	// studies (at most one of which is selected).
	writeBench := func(rep *experiments.BenchReport) error {
		if *benchOut == "" {
			return nil
		}
		if err := experiments.WriteFile(*benchOut, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s benchmark record to %s\n\n", rep.Bench, *benchOut)
		return nil
	}

	reg := obs.NewRegistry()
	// Pre-register the robustness counters so -trace / -metrics-out
	// snapshots report zeros instead of omitting them entirely (the
	// registry creates metrics lazily on first touch).
	for _, name := range fpgasat.RobustnessMetricNames() {
		reg.Counter(name)
	}
	// One session for the whole run: every timed solve draws a pooled
	// arena-backed solver, and the sat.reset.* / sat.arena.* gauges end
	// up in the -trace / -metrics-out dump.
	session := fpgasat.NewSession(reg)
	pool := session.Pool()
	defer func() {
		session.PoolStats()
		if err := dumpMetrics(reg, *trace, *metricsOut); err != nil {
			log.Print(err)
			status = 1
		}
	}()
	// loaded stays nil without -instances, so each study falls back to
	// its own default list.
	var loaded []mcnc.Instance
	if *instances != "" {
		f, err := os.Open(*instances)
		if err != nil {
			return fail(err)
		}
		loaded, err = mcnc.ParseInstances(*instances, f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	}
	insts := loaded
	if insts == nil {
		insts = mcnc.Table2Instances()
	}
	if *quick && len(insts) > 2 {
		insts = insts[:2]
	}

	fmt.Printf("# fpgasat experiment run (%s)\n\n", time.Now().Format(time.RFC3339))
	if *table1 {
		fmt.Println(experiments.RunTable1().Markdown())
	}
	if *figure1 {
		f, err := experiments.RunFigure1()
		if err != nil {
			return fail(err)
		}
		fmt.Println(f.Markdown())
	}
	if *table2 {
		start := time.Now()
		r, err := experiments.RunTable2(experiments.Table2Config{
			Instances: insts, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
		fmt.Printf("Best single strategy: **%s** (total %s). Symmetry wins per heuristic: %v. Run time %s.\n\n",
			r.Columns[r.Best()], r.Totals[r.Best()], r.SymmetryWins(), time.Since(start).Round(time.Second))
	}
	if *routable {
		r, err := experiments.RunRoutable(experiments.RoutableConfig{
			Instances: insts, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
		fmt.Printf("Spread (slowest/fastest encoding total): %.1f×\n\n", r.Spread())
	}
	if *portfolio {
		r, err := experiments.RunPortfolio(experiments.PortfolioConfig{
			Instances: insts, Timeout: *timeout, Progress: progress, Obs: reg, Pool: pool,
			Verify: *verify, VerifyUnsat: *verify, LaneTimeout: *laneTO, MaxRetries: *maxRetries,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *shareCmp {
		r, err := experiments.RunShareComparison(experiments.ShareCompareConfig{
			Instances: insts, Lanes: *shareLanes, Seed: *seed, Repeats: *shareReps,
			Share:   fpgasat.ShareOptions{MaxLBD: int32(*shareLBD), MaxSize: *shareMax},
			Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
		fmt.Printf("Sharing improved wall clock on %d of %d instances (total %.2f×).\n\n",
			r.Improved(), len(r.Rows), r.TotalSpeedup)
		if err := writeBench(r.Report()); err != nil {
			return fail(err)
		}
	}
	if *scaleRun {
		r, err := experiments.RunScale(experiments.ScaleConfig{
			Factors: factors, Encoding: *scaleEnc, Progress: progress,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
		if err := writeBench(r.Report()); err != nil {
			return fail(err)
		}
	}
	if *bandwidth {
		r, err := experiments.RunBandwidth(experiments.BandwidthConfig{
			Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
		if err := writeBench(r.Report()); err != nil {
			return fail(err)
		}
	}
	if *sizes {
		r, err := experiments.RunSizes(insts[0])
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *solvers {
		cfgInsts := insts
		if len(cfgInsts) > 4 {
			cfgInsts = cfgInsts[:4]
		}
		r, err := experiments.RunSolverCompare(experiments.SolverCompareConfig{
			Instances: cfgInsts, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *trees {
		r, err := experiments.RunTreeAblation(experiments.TreeAblationConfig{
			Instance: insts[0], Symmetry: symmetry.S1, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *baselines {
		r, err := experiments.RunBaselines(insts)
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *symAbl {
		r, err := experiments.RunSymmetryAblation(experiments.SymmetryAblationConfig{
			Instances: insts, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println("### Symmetry-heuristic ablation (fixed encoding ITE-linear-2+muldirect)")
		fmt.Println()
		fmt.Println(r.Markdown())
	}
	if *calibrate {
		r, err := experiments.RunCalibrate(experiments.CalibrateConfig{
			Instances: loaded, Timeout: *timeout, Progress: progress, Obs: reg, Pool: pool,
		})
		if r != nil {
			fmt.Println(r.Markdown())
		}
		if err != nil {
			return fail(err)
		}
	}
	if *seedScan {
		r, err := experiments.RunSeedScan(experiments.SeedScanConfig{
			Instances: loaded, Timeout: *timeout, Progress: progress, Pool: pool,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	if *exportDir != "" {
		r, err := experiments.RunExport(*exportDir, loaded, progress)
		if err != nil {
			return fail(err)
		}
		fmt.Println(r.Markdown())
	}
	return 0
}

// dumpMetrics prints the -trace report and writes the -metrics-out
// snapshot.
func dumpMetrics(reg *obs.Registry, trace bool, metricsOut string) error {
	if trace {
		fmt.Println("\n── metrics report ──")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if metricsOut == "" {
		return nil
	}
	return experiments.WriteFile(metricsOut, reg.Snapshot().WriteJSON)
}
