package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

// Side is the channel width at which a grid solves an instance.
type Side int

const (
	// Unroutable solves at W-1, where a Sat answer fails the run.
	Unroutable Side = iota
	// Routable solves at W, where an Unsat answer fails the run.
	Routable
)

// Column is one column of a grid: a strategy solved under one solver
// configuration.
type Column struct {
	Name     string
	Strategy core.Strategy
	Solver   sat.Options
}

// Grid is the shape of the paper's evaluation: every instance, at
// every side, solved under every column.
type Grid struct {
	Instances []mcnc.Instance
	Sides     []Side
	Columns   []Column
	Timeout   time.Duration // per solve; 0 means none
	Progress  io.Writer     // optional, one line per solve
	// Pool, when non-nil, supplies reusable solvers for every solve;
	// nil measures on fresh solvers.
	Pool *sat.Pool
}

// GridResult holds a grid's measurements.
type GridResult struct {
	Instances []string
	Columns   []Column
	Cells     [][][]Timing // [instance][side][column]
}

// RunGrid builds each instance once and times every cell through
// RunStrategy, charging the instance's translation time to each cell
// as the paper does. A definite answer that contradicts its side means
// the instance's RoutableW is wrong, and fails the run.
func RunGrid(g Grid) (*GridResult, error) {
	res := &GridResult{Columns: g.Columns}
	for _, in := range g.Instances {
		cg, translate, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		row := make([][]Timing, len(g.Sides))
		for si, side := range g.Sides {
			w, wrong := in.UnroutableW(), sat.Sat
			if side == Routable {
				w, wrong = in.RoutableW, sat.Unsat
			}
			row[si] = make([]Timing, len(g.Columns))
			for ci, col := range g.Columns {
				t := RunStrategy(cg, w, col.Strategy, col.Solver, translate, g.Timeout, g.Pool)
				if t.Status == wrong {
					return nil, fmt.Errorf("experiments: %s at W=%d is %v under %s; calibration broken",
						in.Name, w, t.Status, col.Name)
				}
				row[si][ci] = t
				if g.Progress != nil {
					fmt.Fprintf(g.Progress, "%-10s W=%d %-28s %8.2fs %s\n",
						in.Name, w, col.Name, t.Total().Seconds(), t.Status)
				}
			}
		}
		res.Instances = append(res.Instances, in.Name)
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// strategyColumns names each column after its strategy spec. The specs
// are this package's own, so a parse error is a bug.
func strategyColumns(specs ...string) []Column {
	cols := make([]Column, len(specs))
	for i, spec := range specs {
		s, err := core.ParseStrategy(spec)
		if err != nil {
			panic(err)
		}
		cols[i] = Column{Name: spec, Strategy: s}
	}
	return cols
}

// solveTime is a cell's SAT solving time alone, the quantity a solver
// comparison measures.
func solveTime(t Timing) time.Duration { return t.SolveTime }

// columnTotals sums cellTime down every column of side si, and reports
// which columns hold a timed-out cell.
func (r *GridResult) columnTotals(si int, cellTime func(Timing) time.Duration) ([]time.Duration, []bool) {
	totals := make([]time.Duration, len(r.Columns))
	capped := make([]bool, len(r.Columns))
	for _, sides := range r.Cells {
		for ci, t := range sides[si] {
			totals[ci] += cellTime(t)
			capped[ci] = capped[ci] || t.Status == sat.Unknown
		}
	}
	return totals, capped
}

// table renders side si as Markdown: one row per instance, a totals
// row and, when speedups is set, each column's speedup over column 0.
// A timed-out cell is marked ">" and makes its column total a lower
// bound.
func (r *GridResult) table(si int, cellTime func(Timing) time.Duration, speedups bool) string {
	header := []string{"Benchmark"}
	for _, c := range r.Columns {
		header = append(header, c.Name)
	}
	var rows [][]string
	for ii, name := range r.Instances {
		row := []string{name}
		for _, t := range r.Cells[ii][si] {
			row = append(row, fmtCell(t, cellTime))
		}
		rows = append(rows, row)
	}
	totals, capped := r.columnTotals(si, cellTime)
	totalRow := []string{"**Total**"}
	for ci, t := range totals {
		totalRow = append(totalRow, fmtDur(t, capped[ci]))
	}
	rows = append(rows, totalRow)
	if speedups {
		speedRow := []string{fmt.Sprintf("**Speedup vs %s**", r.Columns[0].Name), "1.00×"}
		for ci := 1; ci < len(totals); ci++ {
			// Capped totals are lower bounds on the true time: a capped
			// baseline makes the true speedup larger (≥), a capped
			// column makes it smaller (≤), both capped is
			// indeterminate (~).
			mark := ""
			switch {
			case capped[0] && capped[ci]:
				mark = "~"
			case capped[0]:
				mark = "≥"
			case capped[ci]:
				mark = "≤"
			}
			speedRow = append(speedRow, fmt.Sprintf("%s%.2f×", mark, totals[0].Seconds()/totals[ci].Seconds()))
		}
		rows = append(rows, speedRow)
	}
	return markdownTable(header, rows)
}

// Best returns the column with the smallest total on the grid's first
// side.
func (r *GridResult) Best() int {
	totals, _ := r.columnTotals(0, Timing.Total)
	best := 0
	for i, t := range totals {
		if t < totals[best] {
			best = i
		}
	}
	return best
}

// Spread returns the slowest column total over the fastest on the
// grid's first side. The paper's "comparable performance" claim for
// routable configurations is a small spread.
func (r *GridResult) Spread() float64 {
	totals, _ := r.columnTotals(0, Timing.Total)
	lo, hi := slices.Min(totals), slices.Max(totals)
	if lo == 0 {
		return 0
	}
	return hi.Seconds() / lo.Seconds()
}

// SymmetryWins counts, per heuristic, the (instance, encoding) pairs of
// the first side on which it beat the encoding's other heuristics: the
// paper's observation that each heuristic wins somewhere but s1
// produces the greatest speedups.
func (r *GridResult) SymmetryWins() map[symmetry.Heuristic]int {
	byEnc := map[string][]int{} // encoding name -> its columns
	for ci, c := range r.Columns {
		name := c.Strategy.Encoding.Name()
		byEnc[name] = append(byEnc[name], ci)
	}
	wins := map[symmetry.Heuristic]int{}
	for _, sides := range r.Cells {
		cells := sides[0]
		for _, cols := range byEnc {
			if len(cols) < 2 {
				continue
			}
			best := cols[0]
			for _, ci := range cols[1:] {
				if cells[ci].Total() < cells[best].Total() {
					best = ci
				}
			}
			wins[r.Columns[best].Strategy.Symmetry]++
		}
	}
	return wins
}

// Table2Columns are the strategy columns of the paper's Table 2: the
// better previously used encoding (muldirect) without and with both
// symmetry-breaking heuristics, then the best 6 of the 12 new
// encodings with b1 and s1.
var Table2Columns = []string{
	"muldirect/-",
	"muldirect/b1",
	"muldirect/s1",
	"ITE-linear/b1",
	"ITE-linear/s1",
	"ITE-log/b1",
	"ITE-log/s1",
	"ITE-linear-2+direct/b1",
	"ITE-linear-2+direct/s1",
	"ITE-linear-2+muldirect/b1",
	"ITE-linear-2+muldirect/s1",
	"muldirect-3+muldirect/b1",
	"muldirect-3+muldirect/s1",
	"direct-3+muldirect/b1",
	"direct-3+muldirect/s1",
}

// Table2Grid reproduces Table 2: every instance proved unroutable at
// W-1 under every Table2Columns strategy.
func Table2Grid(insts []mcnc.Instance) Grid {
	return Grid{Instances: insts, Sides: []Side{Unroutable}, Columns: strategyColumns(Table2Columns...)}
}

// Table2Markdown renders a Table2Grid in the paper's layout: one row
// per benchmark, a totals row and a speedup row.
func (r *GridResult) Table2Markdown() string {
	return "### Table 2 — total CPU time [s] proving unroutability at W-1 " +
		"(translation to graph coloring + translation to CNF + SAT solving)\n\n" +
		r.table(0, Timing.Total, true)
}

// Table2Summary names a Table2Grid's best column with its total, and
// counts each symmetry heuristic's wins.
func (r *GridResult) Table2Summary() string {
	totals, capped := r.columnTotals(0, Timing.Total)
	best := r.Best()
	wins := r.SymmetryWins()
	s := fmt.Sprintf("Best single strategy: **%s** (total %s s). Symmetry wins: s1 wins %d, b1 wins %d",
		r.Columns[best].Name, fmtDur(totals[best], capped[best]), wins[symmetry.S1], wins[symmetry.B1])
	if n := wins[symmetry.None]; n > 0 {
		s += fmt.Sprintf(", no symmetry breaking wins %d", n)
	}
	return s + "."
}

// symmetryEncoding is the encoding the symmetry ablation fixes.
const symmetryEncoding = "ITE-linear-2+muldirect"

// SymmetryGrid ablates symmetry breaking: one fixed encoding proving
// unroutability at W-1 under no symmetry breaking, the paper's b1 and
// s1, and the clique-seeded extension c1.
func SymmetryGrid(insts []mcnc.Instance) Grid {
	return Grid{Instances: insts, Sides: []Side{Unroutable}, Columns: strategyColumns(
		symmetryEncoding+"/-", symmetryEncoding+"/b1", symmetryEncoding+"/s1", symmetryEncoding+"/c1")}
}

// SymmetryMarkdown renders a SymmetryGrid in the Table 2 layout.
func (r *GridResult) SymmetryMarkdown() string {
	return "### Symmetry-heuristic ablation — total CPU time [s] proving unroutability at W-1 " +
		"(fixed encoding " + symmetryEncoding + ")\n\n" +
		r.table(0, Timing.Total, true)
}

// RoutableGrid solves every instance at its routable width W under
// every paper encoding without symmetry breaking (Sect. 6: "most of the
// encodings had comparable and very efficient performance when finding
// solutions for configurations that were routable").
func RoutableGrid(insts []mcnc.Instance) Grid {
	return Grid{Instances: insts, Sides: []Side{Routable}, Columns: strategyColumns(core.PaperEncodingNames...)}
}

// RoutableMarkdown renders a RoutableGrid with a totals row.
func (r *GridResult) RoutableMarkdown() string {
	return "### Routable configurations — total CPU time [s] finding a detailed routing at W (no symmetry breaking)\n\n" +
		r.table(0, Timing.Total, false)
}

// The solver-profile comparison's fixed strategy, and how many
// instances it runs.
const (
	solverStrategy  = "ITE-linear-2+muldirect/s1"
	solverInstances = 4
)

// SolverGrid mirrors the paper's siege_v4-vs-MiniSat observation
// ("siege_v4 was faster by at least a factor of 2 when proving
// unsatisfiability ... while the satisfiable formulas were solved by
// either SAT solver in usually a fraction of a second, such that
// MiniSat had a small advantage"): the first four instances at W-1,
// then at W, under every built-in solver profile with one fixed
// strategy.
func SolverGrid(insts []mcnc.Instance) Grid {
	if len(insts) > solverInstances {
		insts = insts[:solverInstances]
	}
	s := strategyColumns(solverStrategy)[0].Strategy
	var cols []Column
	for _, p := range sat.Profiles() {
		cols = append(cols, Column{Name: p.Name, Strategy: s, Solver: p.Opts})
	}
	return Grid{Instances: insts, Sides: []Side{Unroutable, Routable}, Columns: cols}
}

// SolverMarkdown renders both sides of a SolverGrid, timing the SAT
// solve alone.
func (r *GridResult) SolverMarkdown() string {
	var sb strings.Builder
	sb.WriteString("### Solver-profile comparison (strategy " + solverStrategy + ")\n\n")
	sb.WriteString("Analog of the paper's siege_v4 vs MiniSat study, using the built-in solver's profiles.\n\n")
	for si, title := range []string{"Unsatisfiable (W-1, unroutable)", "Satisfiable (W, routable)"} {
		fmt.Fprintf(&sb, "**%s** [s]\n\n%s\n", title, r.table(si, solveTime, false))
	}
	return sb.String()
}

// treeRandomShapes is how many random ITE-tree shapes the tree-shape
// ablation measures.
const treeRandomShapes = 3

// TreeGrid is the ITE-tree-shape ablation. Sect. 3 of the paper notes
// that structurally different ITE trees over the same domain yield
// different encodings with different value-selection probabilities;
// the grid solves one instance at W-1, then at W, under the two
// extreme shapes (chain, balanced) and treeRandomShapes random ones,
// all with s1.
func TreeGrid(in mcnc.Instance) Grid {
	encodings := []core.Encoding{
		core.NewITETree("ITE-tree-linear", core.LinearShape),
		core.NewITETree("ITE-tree-balanced", core.BalancedShape),
	}
	for i := 0; i < treeRandomShapes; i++ {
		encodings = append(encodings, core.NewITETree(
			fmt.Sprintf("ITE-tree-random-%d", i),
			core.RandomShape(rand.New(rand.NewSource(int64(100+i))))))
	}
	cols := make([]Column, len(encodings))
	for i, enc := range encodings {
		cols[i] = Column{Name: enc.Name(), Strategy: core.Strategy{Encoding: enc, Symmetry: symmetry.S1}}
	}
	return Grid{Instances: []mcnc.Instance{in}, Sides: []Side{Unroutable, Routable}, Columns: cols}
}

// TreeMarkdown renders a TreeGrid transposed, one row per shape. The
// times leave out the translation, which every shape shares.
func (r *GridResult) TreeMarkdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### ITE-tree shape ablation on %s\n\n", r.Instances[0])
	sb.WriteString("Same domain, different tree structure (Sect. 3): satisfiability is invariant, solve effort is not.\n\n")
	encodeSolve := func(t Timing) time.Duration { return t.EncodeTime + t.SolveTime }
	unsat, routable := r.Cells[0][0], r.Cells[0][1]
	var rows [][]string
	for ci, c := range r.Columns {
		rows = append(rows, []string{
			c.Name,
			fmtCell(unsat[ci], encodeSolve),
			fmtCell(routable[ci], encodeSolve),
			fmt.Sprintf("%d", unsat[ci].Stats.Conflicts),
		})
	}
	sb.WriteString(markdownTable([]string{"Tree shape", "unsat W-1 [s]", "sat W [s]", "unsat conflicts"}, rows))
	return sb.String()
}
