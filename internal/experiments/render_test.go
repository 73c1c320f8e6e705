package experiments

import (
	"strings"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/sat"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// columns builds named columns for hand-built grid results; the views
// read only the names.
func columns(names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n}
	}
	return cols
}

// TestPinnedRenders pins the Markdown of the Table 2, routable,
// solver-profile and tree-shape views on hand-built results with fixed
// durations and no timed-out cell, so a change to how the studies are
// run cannot silently change how they are reported.
func TestPinnedRenders(t *testing.T) {
	table2 := func() string {
		return (&GridResult{
			Instances: []string{"alu2", "too_large"},
			Columns:   columns("muldirect/-", "ITE-log/b1", "ITE-log/s1"),
			Cells: [][][]Timing{
				{{
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(20), SolveTime: ms(12500), Status: sat.Unsat}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(401), Status: sat.Unsat}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(6), SolveTime: ms(92), Status: sat.Unsat}},
				}},
				{{
					{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(40), SolveTime: ms(101000), Status: sat.Unsat}},
					{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(7), SolveTime: ms(1234), Status: sat.Unsat}},
					{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(8), SolveTime: ms(2718), Status: sat.Unsat}},
				}},
			},
		}).Table2Markdown()
	}
	routable := func() string {
		return (&GridResult{
			Instances: []string{"alu2", "too_large"},
			Columns:   columns("muldirect", "ITE-log"),
			Cells: [][][]Timing{
				{{
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(20), SolveTime: ms(33), Status: sat.Sat}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(4), SolveTime: ms(15), Status: sat.Sat}},
				}},
				{{
					{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(40), SolveTime: ms(9870), Status: sat.Sat}},
					{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(7), SolveTime: ms(61), Status: sat.Sat}},
				}},
			},
		}).RoutableMarkdown()
	}
	solvers := func() string {
		// The profile view times the solve alone: translation and
		// encoding are the same for every profile.
		return (&GridResult{
			Instances: []string{"alu2", "too_large"},
			Columns:   columns("luby", "geometric"),
			Cells: [][][]Timing{
				{
					{{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(812), Status: sat.Unsat}}, {Translate: ms(10), Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(1650), Status: sat.Unsat}}},
					{{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(6), SolveTime: ms(21), Status: sat.Sat}}, {Translate: ms(10), Solved: core.Solved{EncodeTime: ms(6), SolveTime: ms(18), Status: sat.Sat}}},
				},
				{
					{{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(7), SolveTime: ms(96), Status: sat.Unsat}}, {Translate: ms(30), Solved: core.Solved{EncodeTime: ms(7), SolveTime: ms(133), Status: sat.Unsat}}},
					{{Translate: ms(30), Solved: core.Solved{EncodeTime: ms(8), SolveTime: ms(12), Status: sat.Sat}}, {Translate: ms(30), Solved: core.Solved{EncodeTime: ms(8), SolveTime: ms(14), Status: sat.Sat}}},
				},
			},
		}).SolverMarkdown()
	}
	trees := func() string {
		// The tree view leaves out the translation every shape shares.
		return (&GridResult{
			Instances: []string{"alu2"},
			Columns:   columns("ITE-tree-linear", "ITE-tree-balanced", "ITE-tree-random-0"),
			Cells: [][][]Timing{{
				{
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(4), SolveTime: ms(21), Status: sat.Unsat, Stats: sat.Stats{Conflicts: 1691}}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(33), Status: sat.Unsat, Stats: sat.Stats{Conflicts: 3001}}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(142), Status: sat.Unsat, Stats: sat.Stats{Conflicts: 2737}}},
				},
				{
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(3), SolveTime: ms(9), Status: sat.Sat, Stats: sat.Stats{Conflicts: 12}}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(4), SolveTime: ms(11), Status: sat.Sat, Stats: sat.Stats{Conflicts: 20}}},
					{Translate: ms(10), Solved: core.Solved{EncodeTime: ms(4), SolveTime: ms(8), Status: sat.Sat, Stats: sat.Stats{Conflicts: 9}}},
				},
			}},
		}).TreeMarkdown()
	}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"table2", table2(), `### Table 2 — total CPU time [s] proving unroutability at W-1 (translation to graph coloring + translation to CNF + SAT solving)

| Benchmark | muldirect/- | ITE-log/b1 | ITE-log/s1 |
| --- | --- | --- | --- |
| alu2 | 12.5 | 0.42 | 0.11 |
| too_large | 101 | 1.27 | 2.76 |
| **Total** | 114 | 1.69 | 2.86 |
| **Speedup vs muldirect/-** | 1.00× | 67.34× | 39.66× |
`},
		{"routable", routable(), `### Routable configurations — total CPU time [s] finding a detailed routing at W (no symmetry breaking)

| Benchmark | muldirect | ITE-log |
| --- | --- | --- |
| alu2 | 0.06 | 0.03 |
| too_large | 9.94 | 0.10 |
| **Total** | 10.0 | 0.13 |
`},
		{"solvers", solvers(), `### Solver-profile comparison (strategy ITE-linear-2+muldirect/s1)

Analog of the paper's siege_v4 vs MiniSat study, using the built-in solver's profiles.

**Unsatisfiable (W-1, unroutable)** [s]

| Benchmark | luby | geometric |
| --- | --- | --- |
| alu2 | 0.81 | 1.65 |
| too_large | 0.10 | 0.13 |
| **Total** | 0.91 | 1.78 |

**Satisfiable (W, routable)** [s]

| Benchmark | luby | geometric |
| --- | --- | --- |
| alu2 | 0.02 | 0.02 |
| too_large | 0.01 | 0.01 |
| **Total** | 0.03 | 0.03 |

`},
		{"trees", trees(), `### ITE-tree shape ablation on alu2

Same domain, different tree structure (Sect. 3): satisfiability is invariant, solve effort is not.

| Tree shape | unsat W-1 [s] | sat W [s] | unsat conflicts |
| --- | --- | --- | --- |
| ITE-tree-linear | 0.03 | 0.01 | 1691 |
| ITE-tree-balanced | 0.04 | 0.01 | 3001 |
| ITE-tree-random-0 | 0.15 | 0.01 | 2737 |
`},
	} {
		if tc.got != tc.want {
			t.Errorf("%s view changed:\n--- got\n%s\n--- want\n%s", tc.name, tc.got, tc.want)
		}
	}
}

// TestTimedOutCellsMarked checks that every view marks a timed-out
// cell with ">", and the total of its column as a lower bound.
func TestTimedOutCellsMarked(t *testing.T) {
	done := func(d int, st sat.Status) Timing {
		return Timing{Solved: core.Solved{EncodeTime: ms(d), SolveTime: ms(d), Status: st}}
	}
	capped := Timing{Solved: core.Solved{EncodeTime: ms(5), SolveTime: ms(2000), Status: sat.Unknown}}
	routable := &GridResult{
		Instances: []string{"alu2", "too_large"},
		Columns:   columns("a", "b"),
		Cells:     [][][]Timing{{{done(10, sat.Sat), capped}}, {{done(20, sat.Sat), done(30, sat.Sat)}}},
	}
	solvers := &GridResult{
		Instances: []string{"alu2", "too_large"},
		Columns:   columns("luby", "geometric"),
		Cells: [][][]Timing{
			{{done(10, sat.Unsat), capped}, {done(10, sat.Sat), done(10, sat.Sat)}},
			{{done(20, sat.Unsat), done(20, sat.Unsat)}, {capped, done(20, sat.Sat)}},
		},
	}
	trees := &GridResult{
		Instances: []string{"alu2"},
		Columns:   columns("ITE-tree-linear", "ITE-tree-balanced"),
		Cells:     [][][]Timing{{{capped, done(10, sat.Unsat)}, {done(10, sat.Sat), capped}}},
	}
	for _, tc := range []struct {
		name string
		md   string
		rows []string
	}{
		{"routable", routable.RoutableMarkdown(), []string{
			"| alu2 | 0.02 | >2.00 |",
			"| **Total** | 0.06 | >2.06 |",
		}},
		{"solvers", solvers.SolverMarkdown(), []string{
			"| alu2 | 0.01 | >2.00 |",
			"| **Total** | 0.03 | >2.02 |", // W-1
			"| too_large | >2.00 | 0.02 |",
			"| **Total** | >2.01 | 0.03 |", // W
		}},
		{"trees", trees.TreeMarkdown(), []string{
			"| ITE-tree-linear | >2.00 | 0.02 | 0 |",
			"| ITE-tree-balanced | 0.02 | >2.00 | 0 |",
		}},
	} {
		for _, row := range tc.rows {
			if !strings.Contains(tc.md, row+"\n") {
				t.Errorf("%s view lacks %q:\n%s", tc.name, row, tc.md)
			}
		}
	}
}
