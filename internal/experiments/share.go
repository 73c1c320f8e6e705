package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
	"fpgasat/internal/share"
)

// ShareCompareConfig controls the clause-sharing study: the same
// replicated-lane portfolio proving unroutability at W-1, once blind
// (seeded lanes, no exchange) and once cooperating through the
// internal/share exchange.
type ShareCompareConfig struct {
	Instances []mcnc.Instance // defaults to mcnc.Table2Instances()
	Strategy  string          // lane strategy, default "ITE-linear-2+muldirect/s1"
	Lanes     int             // same-strategy lanes per run, default 2
	Seed      int64           // lane diversification seed, default 1
	// Repeats runs every (instance, mode) pair this many times with
	// seeds Seed, Seed+1, ... and records the summed wall clock.
	// Refutation time under seeded search is heavy-tailed; a single
	// seed can swing an instance's comparison either way, so the
	// recorded numbers should aggregate a few. Default 1.
	Repeats  int
	Share    share.Options // exchange tuning for the cooperating run
	Timeout  time.Duration
	Progress io.Writer
	Pool     *sat.Pool
}

// ShareCompareRow is one instance's blind-vs-shared measurement.
type ShareCompareRow struct {
	Instance string
	W        int // unroutable width being refuted
	BlindNS  int64
	SharedNS int64
	Speedup  float64 // blind / shared wall clock
	// Summed solver conflicts across lanes — the work the exchange is
	// supposed to save.
	BlindConflicts  int64
	SharedConflicts int64
	// Exchange activity of the shared run.
	Exported int64
	Imported int64
}

// ShareCompareResult aggregates the study for Markdown and JSON output.
type ShareCompareResult struct {
	Strategy      string
	Lanes         int
	Seed          int64
	Repeats       int // times are summed over seeds Seed..Seed+Repeats-1
	Rows          []ShareCompareRow
	TotalBlindNS  int64
	TotalSharedNS int64
	TotalSpeedup  float64
}

// RunShareComparison measures, per unroutable configuration, the
// wall-clock time of a blind n-lane portfolio against the same lanes
// connected through a clause exchange. Both runs use identical seeds,
// so the only difference is the imported lemmas.
func RunShareComparison(cfg ShareCompareConfig) (*ShareCompareResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "ITE-linear-2+muldirect/s1"
	}
	if cfg.Lanes < 2 {
		cfg.Lanes = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	s, err := core.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	lanes := portfolio.Replicate([]core.Strategy{s}, cfg.Lanes)
	res := &ShareCompareResult{
		Strategy: s.Name(), Lanes: cfg.Lanes, Seed: cfg.Seed, Repeats: cfg.Repeats,
	}

	for _, in := range cfg.Instances {
		g, _, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		w := in.UnroutableW()
		row := ShareCompareRow{Instance: in.Name, W: w}

		for _, shared := range []bool{false, true} {
			for rep := 0; rep < cfg.Repeats; rep++ {
				reg := obs.NewRegistry()
				opts := portfolio.Options{
					Metrics: reg,
					Pool:    cfg.Pool,
					Seed:    cfg.Seed + int64(rep),
				}
				if shared {
					so := cfg.Share
					opts.Share = &so
				}
				ctx, cancel := withTimeout(cfg.Timeout)
				start := time.Now()
				winner, all, err := portfolio.Run(ctx, g, w, lanes, opts)
				elapsed := time.Since(start)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("experiments: %s share study: %w", in.Name, err)
				}
				if winner.Status == sat.Sat {
					return nil, fmt.Errorf("experiments: %s at W=%d claims routable; calibration broken", in.Name, w)
				}
				var conflicts int64
				for _, r := range all {
					conflicts += r.Stats.Conflicts
				}
				if shared {
					row.SharedNS += elapsed.Nanoseconds()
					row.SharedConflicts += conflicts
					snap := reg.Snapshot()
					row.Exported += snap.Counters[portfolio.MetricShareExported]
					row.Imported += snap.Counters[portfolio.MetricShareImported]
				} else {
					row.BlindNS += elapsed.Nanoseconds()
					row.BlindConflicts += conflicts
				}
				if cfg.Progress != nil {
					mode := "blind "
					if shared {
						mode = "shared"
					}
					fmt.Fprintf(cfg.Progress, "%-10s %s seed=%-3d %8.2fs %9d conflicts\n",
						in.Name, mode, cfg.Seed+int64(rep), elapsed.Seconds(), conflicts)
				}
			}
		}
		if row.SharedNS > 0 {
			row.Speedup = float64(row.BlindNS) / float64(row.SharedNS)
		}
		res.Rows = append(res.Rows, row)
		res.TotalBlindNS += row.BlindNS
		res.TotalSharedNS += row.SharedNS
	}
	if res.TotalSharedNS > 0 {
		res.TotalSpeedup = float64(res.TotalBlindNS) / float64(res.TotalSharedNS)
	}
	return res, nil
}

// Improved counts the instances where the cooperating portfolio beat
// the blind one on wall clock.
func (r *ShareCompareResult) Improved() int {
	n := 0
	for _, row := range r.Rows {
		if row.Speedup > 1 {
			n++
		}
	}
	return n
}

// Markdown renders the study in the EXPERIMENTS.md table format.
func (r *ShareCompareResult) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Clause-sharing study — %d lanes of %s proving unroutability at W-1\n\n",
		r.Lanes, r.Strategy)
	header := []string{"Benchmark", "blind [s]", "shared [s]", "speedup", "blind conflicts", "shared conflicts", "imported"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Instance,
			fmtDur(time.Duration(row.BlindNS), false),
			fmtDur(time.Duration(row.SharedNS), false),
			fmt.Sprintf("%.2f×", row.Speedup),
			fmt.Sprintf("%d", row.BlindConflicts),
			fmt.Sprintf("%d", row.SharedConflicts),
			fmt.Sprintf("%d", row.Imported),
		})
	}
	total := "—"
	if r.TotalSpeedup > 0 {
		total = fmt.Sprintf("%.2f×", r.TotalSpeedup)
	}
	rows = append(rows, []string{"**Total**",
		fmtDur(time.Duration(r.TotalBlindNS), false),
		fmtDur(time.Duration(r.TotalSharedNS), false),
		total, "", "", ""})
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}

// Report converts the study to the unified bench envelope: one series
// per metric, one point per instance, with the study knobs and totals
// in the metadata params.
func (r *ShareCompareResult) Report() *BenchReport {
	labels := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = row.Instance
	}
	rows := r.Rows
	return &BenchReport{
		Schema: BenchSchema,
		Bench:  "portfolio.share",
		Meta: newBenchMeta(map[string]string{
			"strategy":        r.Strategy,
			"lanes":           fmt.Sprintf("%d", r.Lanes),
			"seed":            fmt.Sprintf("%d", r.Seed),
			"repeats":         fmt.Sprintf("%d", r.Repeats),
			"total_blind_ns":  fmt.Sprintf("%d", r.TotalBlindNS),
			"total_shared_ns": fmt.Sprintf("%d", r.TotalSharedNS),
			"total_speedup":   fmt.Sprintf("%g", r.TotalSpeedup),
		}),
		Series: []BenchSeries{
			series("blind_ns", "ns", labels, func(i int) float64 { return float64(rows[i].BlindNS) }),
			series("shared_ns", "ns", labels, func(i int) float64 { return float64(rows[i].SharedNS) }),
			series("speedup", "ratio", labels, func(i int) float64 { return rows[i].Speedup }),
			series("blind_conflicts", "count", labels, func(i int) float64 { return float64(rows[i].BlindConflicts) }),
			series("shared_conflicts", "count", labels, func(i int) float64 { return float64(rows[i].SharedConflicts) }),
			series("exported", "count", labels, func(i int) float64 { return float64(rows[i].Exported) }),
			series("imported", "count", labels, func(i int) float64 { return float64(rows[i].Imported) }),
		},
	}
}
