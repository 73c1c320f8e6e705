package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
	"fpgasat/internal/share"
)

// PortfolioSeeds is how many portfolio seeds every cell of the study
// runs at: portfolio.Options.Seed 1 through PortfolioSeeds. Seed 0
// would leave the lanes of a replicated strategy identical.
const PortfolioSeeds = 7

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
	// Verify enables paranoid-mode answer checking in every column.
	Verify bool
}

// PortfolioColumn is one column of the portfolio study: a lane set,
// with or without clause sharing, raced on every instance at every
// portfolio seed.
type PortfolioColumn struct {
	Name    string
	Members []core.Strategy
	Share   bool
	// Cells[i][s] is instance i at portfolio seed s+1.
	Cells [][]PortfolioCell
}

// PortfolioCell is one portfolio.Run of a column.
type PortfolioCell struct {
	// Wall is the wall clock, translation included.
	Wall time.Duration
	// Conflicts and Imported sum the lanes' solver conflicts and the
	// clauses they imported from the exchange.
	Conflicts, Imported int64
	// Winner is the index of the winning lane in Members.
	Winner int
}

// PortfolioResult is the portfolio study on the unroutable
// configurations.
type PortfolioResult struct {
	Instances []string
	Columns   []PortfolioColumn
}

// portfolioColumns returns the study's lane sets. Column 0 is the
// paper's best single strategy, ITE-linear-2+muldirect/s1, and every
// other column keeps it as lane 0. portfolio.Run seeds lane i with
// share.MixSeed(seed, i), so lane 0 replays column 0's search and a
// blind column gains over column 0 only through its added lanes.
func portfolioColumns() ([]PortfolioColumn, error) {
	p3, err := portfolio.PaperPortfolio3()
	if err != nil {
		return nil, err
	}
	winner := p3[:1]
	return []PortfolioColumn{
		{Name: "winner alone", Members: winner},
		{Name: "portfolio of 2", Members: p3[:2]},
		{Name: "portfolio of 3", Members: p3},
		{Name: "winner, 2 lanes", Members: portfolio.Replicate(winner, 2)},
		{Name: "winner, 3 lanes", Members: portfolio.Replicate(winner, 3)},
		{Name: "winner, 2 lanes, sharing", Members: portfolio.Replicate(winner, 2), Share: true},
	}, nil
}

// RunPortfolio races each column's lane set through portfolio.Run on
// every unroutable configuration at portfolio seeds 1..PortfolioSeeds:
// the paper's best single strategy alone, the paper's 2- and
// 3-strategy portfolios, that strategy replicated into 2 and 3 seeded
// lanes, and 2 such lanes exchanging learnt clauses. Every cell runs
// with the same options, the single strategy as a one-lane portfolio,
// so paranoid checks cost every column alike.
func RunPortfolio(cfg PortfolioConfig) (*PortfolioResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()
	}
	cols, err := portfolioColumns()
	if err != nil {
		return nil, err
	}
	res := &PortfolioResult{Columns: cols}
	for _, in := range cfg.Instances {
		g, translate, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		w := in.UnroutableW()
		for ci := range res.Columns {
			col := &res.Columns[ci]
			cells := make([]PortfolioCell, PortfolioSeeds)
			for s := range cells {
				opts := portfolio.Options{
					Metrics: cfg.Obs,
					Pool:    cfg.Pool,
					Verify:  cfg.Verify,
					Seed:    int64(s + 1),
				}
				if col.Share {
					opts.Share = &share.Options{}
				}
				ctx, cancel := withTimeout(cfg.Timeout)
				start := time.Now()
				winner, lanes, err := portfolio.Run(ctx, g, w, col.Members, opts)
				elapsed := time.Since(start)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("experiments: %s %s seed %d: %w", in.Name, col.Name, opts.Seed, err)
				}
				if winner.Status == sat.Sat {
					return nil, fmt.Errorf("experiments: %s at W=%d claims routable; calibration broken", in.Name, w)
				}
				cell := &cells[s]
				cell.Wall = translate + elapsed
				for li, r := range lanes {
					cell.Conflicts += r.Stats.Conflicts
					cell.Imported += r.Stats.Imported
					if r.Winner {
						cell.Winner = li
					}
				}
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-10s %-25s seed=%d %8.2fs %9d conflicts winner=lane %d imported=%d\n",
						in.Name, col.Name, opts.Seed, cell.Wall.Seconds(), cell.Conflicts, cell.Winner, cell.Imported)
				}
			}
			col.Cells = append(col.Cells, cells)
		}
		res.Instances = append(res.Instances, in.Name)
	}
	return res, nil
}

// spread returns, per instance, the median and the maximum over seeds
// of value read from the column's cells.
func (c *PortfolioColumn) spread(value func(PortfolioCell) int64) (medians, maxima []int64) {
	for _, cells := range c.Cells {
		vs := make([]int64, len(cells))
		for s, cell := range cells {
			vs[s] = value(cell)
		}
		slices.Sort(vs)
		medians = append(medians, vs[len(vs)/2])
		maxima = append(maxima, vs[len(vs)-1])
	}
	return medians, maxima
}

func cellWall(c PortfolioCell) int64      { return int64(c.Wall) }
func cellConflicts(c PortfolioCell) int64 { return c.Conflicts }

func sum(vs []int64) int64 {
	var t int64
	for _, v := range vs {
		t += v
	}
	return t
}

// Speedup returns column 0's total of per-instance median wall clocks
// over column ci's.
func (r *PortfolioResult) Speedup(ci int) float64 {
	base, _ := r.Columns[0].spread(cellWall)
	med, _ := r.Columns[ci].spread(cellWall)
	return float64(sum(base)) / float64(sum(med))
}

// Markdown renders each instance's median wall clock per column, then
// each column's totals of per-instance medians and maxima, for wall
// clock and for conflicts, and the speedup of the median total over
// column 0.
func (r *PortfolioResult) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Portfolio study — median wall clock [s] over portfolio seeds 1–%d proving unroutability at W-1\n\n", PortfolioSeeds)
	fmt.Fprintf(&sb, "The winner is %s; conflicts are summed over a run's lanes.\n\n", r.Columns[0].Members[0].Name())
	header := []string{"Benchmark"}
	rows := make([][]string, len(r.Instances))
	for i, name := range r.Instances {
		rows[i] = []string{name}
	}
	totals := [][]string{
		{"**Σ median wall [s]**"}, {"**Σ max wall [s]**"},
		{"**Σ median conflicts**"}, {"**Σ max conflicts**"},
		{"**Speedup of Σ median wall**"},
	}
	for ci := range r.Columns {
		c := &r.Columns[ci]
		header = append(header, c.Name)
		wallMed, wallMax := c.spread(cellWall)
		confMed, confMax := c.spread(cellConflicts)
		for i, m := range wallMed {
			rows[i] = append(rows[i], fmtDur(time.Duration(m), false))
		}
		totals[0] = append(totals[0], fmtDur(time.Duration(sum(wallMed)), false))
		totals[1] = append(totals[1], fmtDur(time.Duration(sum(wallMax)), false))
		totals[2] = append(totals[2], fmt.Sprintf("%d", sum(confMed)))
		totals[3] = append(totals[3], fmt.Sprintf("%d", sum(confMax)))
		totals[4] = append(totals[4], fmt.Sprintf("%.2f×", r.Speedup(ci)))
	}
	sb.WriteString(markdownTable(header, append(rows, totals...)))
	return sb.String()
}

// Report converts the study to the unified bench envelope: one point
// per instance, column and seed, labeled "instance/column/seed N", and
// each column's lane set in the metadata params.
func (r *PortfolioResult) Report() *BenchReport {
	params := map[string]string{"seeds": fmt.Sprintf("1-%d", PortfolioSeeds)}
	var labels []string
	var cells []PortfolioCell
	for ci := range r.Columns {
		c := &r.Columns[ci]
		names := make([]string, len(c.Members))
		for i, s := range c.Members {
			names[i] = s.Name()
		}
		lanes := strings.Join(names, ",")
		if c.Share {
			lanes += " sharing"
		}
		params["column "+c.Name] = lanes
	}
	for i, in := range r.Instances {
		for ci := range r.Columns {
			c := &r.Columns[ci]
			for s, cell := range c.Cells[i] {
				labels = append(labels, fmt.Sprintf("%s/%s/seed %d", in, c.Name, s+1))
				cells = append(cells, cell)
			}
		}
	}
	return &BenchReport{
		Schema: BenchSchema,
		Bench:  "portfolio",
		Meta:   newBenchMeta(params),
		Series: []BenchSeries{
			series("wall_ns", "ns", labels, func(i int) float64 { return float64(cells[i].Wall) }),
			series("conflicts", "count", labels, func(i int) float64 { return float64(cells[i].Conflicts) }),
			series("winner_lane", "index", labels, func(i int) float64 { return float64(cells[i].Winner) }),
			series("imported", "count", labels, func(i int) float64 { return float64(cells[i].Imported) }),
		},
	}
}
