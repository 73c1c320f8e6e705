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
)

// PortfolioConfig controls the portfolio study of Sect. 6.
type PortfolioConfig struct {
	Instances []mcnc.Instance // defaults to mcnc.Table2Instances()
	Timeout   time.Duration
	Progress  io.Writer
	// Obs, when non-nil, receives per-strategy portfolio telemetry
	// (encode/solve timers, CNF sizes, wins, winner margin).
	Obs *obs.Registry
	// Pool, when non-nil, supplies reusable solvers to every lane; nil
	// keeps the portfolio's package lane pool.
	Pool *sat.Pool
	// Verify enables paranoid-mode answer checking; LaneTimeout and
	// MaxRetries configure the per-lane watchdog and budgeted retry
	// policy (see portfolio.Options). Every column runs with them.
	Verify      bool
	LaneTimeout time.Duration
	MaxRetries  int
}

// PortfolioColumn is one column of the portfolio study: a lane set
// raced on every instance.
type PortfolioColumn struct {
	Name    string
	Members []core.Strategy
	// Per instance: wall clock, translation included, and the winning
	// strategy.
	Times   []time.Duration
	Winners []string
	Total   time.Duration
}

// PortfolioResult compares the best single strategy against the
// paper's 2- and 3-strategy portfolios on the unroutable
// configurations.
type PortfolioResult struct {
	Instances []string
	// Columns are the single strategy, the portfolio of 2 and the
	// portfolio of 3.
	Columns []PortfolioColumn
}

// RunPortfolio measures the wall-clock time of (a) the best single
// strategy ITE-linear-2+muldirect/s1, (b) the paper's 2-strategy
// portfolio and (c) its 3-strategy portfolio on each unroutable
// configuration. All three run through portfolio.Run with the same
// options, the single strategy as a one-lane portfolio, so paranoid
// checks, watchdogs and retries cost every column alike. Portfolio
// members run concurrently; on a single-core host the portfolio's
// advantage comes purely from strategy variance (see EXPERIMENTS.md).
func RunPortfolio(cfg PortfolioConfig) (*PortfolioResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()
	}
	p3, err := portfolio.PaperPortfolio3()
	if err != nil {
		return nil, err
	}
	res := &PortfolioResult{Columns: []PortfolioColumn{
		{Name: p3[0].Name(), Members: p3[:1]},
		{Name: "portfolio of 2", Members: p3[:2]},
		{Name: "portfolio of 3", Members: p3},
	}}
	opts := portfolio.Options{
		Metrics:     cfg.Obs,
		Pool:        cfg.Pool,
		Verify:      cfg.Verify,
		LaneTimeout: cfg.LaneTimeout,
		MaxRetries:  cfg.MaxRetries,
	}
	for _, in := range cfg.Instances {
		g, translate, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		w := in.UnroutableW()
		for ci := range res.Columns {
			col := &res.Columns[ci]
			start := time.Now()
			ctx, cancel := withTimeout(cfg.Timeout)
			winner, _, err := portfolio.Run(ctx, g, w, col.Members, opts)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", in.Name, col.Name, err)
			}
			if winner.Status == sat.Sat {
				return nil, fmt.Errorf("experiments: %s at W=%d claims routable; calibration broken", in.Name, w)
			}
			elapsed := translate + time.Since(start)
			col.Times = append(col.Times, elapsed)
			col.Winners = append(col.Winners, winner.Strategy.Name())
			col.Total += elapsed
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-10s %-25s %8.2fs winner=%s\n",
					in.Name, col.Name, elapsed.Seconds(), winner.Strategy.Name())
			}
		}
		res.Instances = append(res.Instances, in.Name)
	}
	return res, nil
}

// Speedup returns column 0's total over column ci's.
func (r *PortfolioResult) Speedup(ci int) float64 {
	return r.Columns[0].Total.Seconds() / r.Columns[ci].Total.Seconds()
}

// Markdown renders the comparison.
func (r *PortfolioResult) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Portfolio study — wall-clock time [s] proving unroutability at W-1\n\n")
	header := []string{"Benchmark"}
	total := []string{"**Total**"}
	speedup := []string{"**Speedup vs single**"}
	for ci, c := range r.Columns {
		header = append(header, c.Name)
		total = append(total, fmtDur(c.Total, false))
		speedup = append(speedup, fmt.Sprintf("%.2f×", r.Speedup(ci)))
	}
	header = append(header, "3-portfolio winner")
	last := r.Columns[len(r.Columns)-1]
	var rows [][]string
	for i, name := range r.Instances {
		row := []string{name}
		for _, c := range r.Columns {
			row = append(row, fmtDur(c.Times[i], false))
		}
		rows = append(rows, append(row, last.Winners[i]))
	}
	rows = append(rows, append(total, ""), append(speedup, ""))
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}
