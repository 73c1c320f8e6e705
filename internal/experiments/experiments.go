// Package experiments regenerates every table and figure of the
// paper's evaluation (Sect. 2 Table 1, Sect. 3 Fig. 1, Sect. 6
// Table 2, the routable-configuration comparison and the portfolio
// study), plus an encoding-size ablation. Results are rendered as
// Markdown so they can be diffed against EXPERIMENTS.md.
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
// translation to CNF + SAT solving" accounting.
type Timing struct {
	Translate time.Duration // netlist -> global routing -> conflict graph
	Encode    time.Duration // symmetry breaking + CNF generation
	Solve     time.Duration
	Status    sat.Status
	Conflicts int64
	Vars      int
	Clauses   int
}

// Total returns the end-to-end time, the quantity Table 2 reports.
func (t Timing) Total() time.Duration { return t.Translate + t.Encode + t.Solve }

// RunStrategy times one strategy on a prebuilt conflict graph. The
// translate duration is supplied by the caller (it is shared across
// strategies, but the paper charges it to every run, so we do too).
// A zero timeout means no timeout. pool, when non-nil, supplies the
// solver, so a sweep reuses clause-arena and watch-list capacity
// between runs; nil solves on a fresh solver.
func RunStrategy(g *graph.Graph, k int, s core.Strategy, translate time.Duration, timeout time.Duration, pool *sat.Pool) Timing {
	encStart := time.Now()
	enc := s.EncodeGraph(g, k)
	encDur := time.Since(encStart)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	solveStart := time.Now()
	res := sat.SolveCNFReusing(ctx, pool, enc.CNF, sat.Options{})
	solveDur := time.Since(solveStart)

	// For satisfiable results, decoding and verification are part of
	// the flow's correctness guarantee; include them in solve time.
	if res.Status == sat.Sat {
		if _, err := enc.DecodeVerify(res.Model); err != nil {
			panic(fmt.Sprintf("experiments: %s produced an invalid model: %v", s.Name(), err))
		}
		solveDur = time.Since(solveStart)
	}
	return Timing{
		Translate: translate,
		Encode:    encDur,
		Solve:     solveDur,
		Status:    res.Status,
		Conflicts: res.Stats.Conflicts,
		Vars:      enc.CNF.NumVars,
		Clauses:   enc.CNF.NumClauses(),
	}
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
