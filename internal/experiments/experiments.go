// Package experiments regenerates every table and figure of the
// paper's evaluation (Sect. 2 Table 1, Sect. 3 Fig. 1, Sect. 6
// Table 2, the routable-configuration comparison and the portfolio
// study), plus an encoding-size ablation. Results are rendered as
// Markdown so they can be diffed against EXPERIMENTS.md.
//
// Table 2, the routable configurations and the symmetry, solver-profile
// and tree-shape ablations are one Grid each (instances × sides ×
// columns), run by RunGrid and rendered by a view of the GridResult.
//
// Three more studies maintain the benchmark suite itself: RunCalibrate
// re-measures every instance's RoutableW, RunSeedScan reproduces the
// choice of the Table-2 generator seeds, and RunExport writes each
// instance's conflict graph, netlist and global routing to files.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
)

// Timing is the cost breakdown of one (instance, strategy, width)
// solve, mirroring the paper's "translation to graph coloring +
// translation to CNF + SAT solving" accounting: Translate, then the
// solve's EncodeTime and SolveTime.
type Timing struct {
	core.Solved
	Translate time.Duration // netlist -> global routing -> conflict graph
}

// Total returns the end-to-end time, the quantity Table 2 reports.
func (t Timing) Total() time.Duration { return t.Translate + t.EncodeTime + t.SolveTime }

// RunStrategy times one strategy on a prebuilt conflict graph, solved
// with the given solver options. The translate duration is supplied by
// the caller (it is shared across strategies, but the paper charges it
// to every run, so we do too). A zero timeout means no timeout. pool,
// when non-nil, supplies the solver, so a sweep reuses clause-arena and
// watch-list capacity between runs; nil solves on a fresh solver.
func RunStrategy(g *graph.Graph, k int, s core.Strategy, opts sat.Options, translate, timeout time.Duration, pool *sat.Pool) Timing {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	res, err := s.Solve(ctx, g, k, pool, opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s produced an invalid model: %v", s.Name(), err))
	}
	return Timing{Solved: res, Translate: translate}
}

// withTimeout returns a context that expires after d, or never when d
// is 0.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// BuildInstance regenerates an instance's conflict graph, returning it
// with the translation time (netlist generation + global routing +
// conflict-graph extraction).
func BuildInstance(in mcnc.Instance) (*graph.Graph, time.Duration, error) {
	start := time.Now()
	_, g, err := in.Build()
	if err != nil {
		return nil, 0, err
	}
	return g, time.Since(start), nil
}

// fmtDur renders a duration in seconds with adaptive precision, with a
// ">" prefix for runs that hit the timeout.
func fmtDur(d time.Duration, timedOut bool) string {
	prefix := ""
	if timedOut {
		prefix = ">"
	}
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%s%.0f", prefix, s)
	case s >= 10:
		return fmt.Sprintf("%s%.1f", prefix, s)
	default:
		return fmt.Sprintf("%s%.2f", prefix, s)
	}
}

// fmtCell renders the time cellTime picks from a solve, marked ">"
// when the solve timed out.
func fmtCell(t Timing, cellTime func(Timing) time.Duration) string {
	return fmtDur(cellTime(t), t.Status == sat.Unknown)
}

// markdownTable renders rows as a Markdown table with the given
// header.
func markdownTable(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(header, " | ") + " |\n")
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, r := range rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return sb.String()
}
