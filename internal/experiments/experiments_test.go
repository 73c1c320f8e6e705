package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

func TestTable1MatchesPaper(t *testing.T) {
	tbl := RunTable1()
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	log, direct, muldirect := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]

	// Log: 2 bits per vertex, 3 conflict clauses, 2 excluded-illegal-
	// values clauses, nothing else (Table 1, first row).
	if log.Encoding != "log" || log.Vars != 4 {
		t.Fatalf("log row: %+v", log)
	}
	if len(log.AtLeastOne) != 0 || len(log.AtMostOne) != 0 ||
		len(log.Conflict) != 3 || len(log.Excluded) != 2 {
		t.Fatalf("log clause census: %+v", log)
	}
	wantLogConflicts := []string{
		"(l_v1 ∨ l_v2 ∨ l_w1 ∨ l_w2)",
		"(¬l_v1 ∨ l_v2 ∨ ¬l_w1 ∨ l_w2)",
		"(l_v1 ∨ ¬l_v2 ∨ l_w1 ∨ ¬l_w2)",
	}
	for i, want := range wantLogConflicts {
		if log.Conflict[i] != want {
			t.Errorf("log conflict %d = %s, want %s", i, log.Conflict[i], want)
		}
	}
	wantLogExcluded := []string{"(¬l_v1 ∨ ¬l_v2)", "(¬l_w1 ∨ ¬l_w2)"}
	for i, want := range wantLogExcluded {
		if log.Excluded[i] != want {
			t.Errorf("log excluded %d = %s, want %s", i, log.Excluded[i], want)
		}
	}

	// Direct: 2 ALO, 6 AMO, 3 conflicts, no exclusions.
	if direct.Vars != 6 || len(direct.AtLeastOne) != 2 || len(direct.AtMostOne) != 6 ||
		len(direct.Conflict) != 3 || len(direct.Excluded) != 0 {
		t.Fatalf("direct clause census: %+v", direct)
	}
	if direct.AtLeastOne[0] != "(x_v0 ∨ x_v1 ∨ x_v2)" {
		t.Errorf("direct ALO = %s", direct.AtLeastOne[0])
	}
	if direct.Conflict[0] != "(¬x_v0 ∨ ¬x_w0)" {
		t.Errorf("direct conflict = %s", direct.Conflict[0])
	}

	// Muldirect: like direct minus the at-most-one clauses.
	if len(muldirect.AtLeastOne) != 2 || len(muldirect.AtMostOne) != 0 ||
		len(muldirect.Conflict) != 3 || len(muldirect.Excluded) != 0 {
		t.Fatalf("muldirect clause census: %+v", muldirect)
	}

	md := tbl.Markdown()
	for _, want := range []string{"Table 1", "| log |", "| direct |", "| muldirect |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	fig, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Encodings) != 4 {
		t.Fatalf("%d encodings", len(fig.Encodings))
	}
	linear, itelog, log1, log2 := fig.Encodings[0], fig.Encodings[1], fig.Encodings[2], fig.Encodings[3]
	if linear.NumVars != 12 || itelog.NumVars != 4 || log1.NumVars != 7 || log2.NumVars != 5 {
		t.Fatalf("var counts: %d %d %d %d", linear.NumVars, itelog.NumVars, log1.NumVars, log2.NumVars)
	}
	// Fig 1.a: v0 by i0, v1 by ¬i0∧i1, v12 by all-negations.
	if linear.Patterns[0] != "i0" || linear.Patterns[1] != "¬i0∧i1" {
		t.Fatalf("ITE-linear patterns: %v", linear.Patterns[:2])
	}
	// Sect. 4 worked example for ITE-log-2+ITE-linear: v4,v5,v6.
	if log2.Patterns[4] != "i0∧¬i1∧i2" ||
		log2.Patterns[5] != "i0∧¬i1∧¬i2∧i3" ||
		log2.Patterns[6] != "i0∧¬i1∧¬i2∧¬i3" {
		t.Fatalf("ITE-log-2+ITE-linear patterns v4..v6: %v", log2.Patterns[4:7])
	}
	if !strings.Contains(fig.Markdown(), "Figure 1") {
		t.Error("markdown missing header")
	}
}

func quickInstances(t *testing.T) []mcnc.Instance {
	t.Helper()
	var out []mcnc.Instance
	for _, name := range []string{"term1", "9symml"} {
		in, err := mcnc.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

func TestTable2Smoke(t *testing.T) {
	cols := []string{"muldirect/-", "muldirect/s1", "ITE-log/s1", "ITE-linear-2+muldirect/s1"}
	g := Table2Grid(quickInstances(t))
	g.Columns = strategyColumns(cols...)
	g.Timeout = 2 * time.Minute
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 2 || len(r.Cells[0][0]) != len(cols) {
		t.Fatalf("grid shape wrong: %dx%d", len(r.Instances), len(r.Cells[0][0]))
	}
	for ii := range r.Cells {
		for ci, c := range r.Cells[ii][0] {
			if c.Status != sat.Unsat {
				t.Errorf("%s %s: %v, want Unsat", r.Instances[ii], cols[ci], c.Status)
			}
			if c.Total() <= 0 {
				t.Errorf("nonpositive total time")
			}
		}
	}
	md := r.Table2Markdown()
	for _, want := range []string{"Table 2", "**Total**", "**Speedup vs muldirect/-** | 1.00× |", "term1"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	wins := r.SymmetryWins()
	if wins[symmetry.None]+wins[symmetry.B1]+wins[symmetry.S1] == 0 {
		t.Error("symmetry win census empty")
	}
	if b := r.Best(); b < 0 || b >= len(cols) {
		t.Errorf("Best out of range: %d", b)
	}
}

func TestRoutableSmoke(t *testing.T) {
	g := RoutableGrid(quickInstances(t))
	g.Columns = strategyColumns("muldirect", "ITE-log", "ITE-linear-2+muldirect")
	g.Timeout = 2 * time.Minute
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	for ii := range r.Cells {
		for _, tm := range r.Cells[ii][0] {
			if tm.Status != sat.Sat {
				t.Errorf("routable run returned %v", tm.Status)
			}
		}
	}
	if r.Spread() < 1 {
		t.Errorf("spread %v < 1", r.Spread())
	}
	if !strings.Contains(r.RoutableMarkdown(), "Routable configurations") {
		t.Error("markdown missing header")
	}
}

// TestGridCalibrationBroken checks the one calibration check every
// grid study goes through: a definite answer that contradicts its side
// fails the run, naming the instance and the width.
func TestGridCalibrationBroken(t *testing.T) {
	term1, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	routableAtWm1, unroutableAtW := term1, term1
	routableAtWm1.RoutableW++ // W-1 is the true chi: Sat
	unroutableAtW.RoutableW-- // W is below the true chi: Unsat
	for _, tc := range []struct {
		grid Grid
		w    int
	}{
		{Table2Grid([]mcnc.Instance{routableAtWm1}), term1.RoutableW},
		{RoutableGrid([]mcnc.Instance{unroutableAtW}), term1.RoutableW - 1},
	} {
		_, err := RunGrid(tc.grid)
		if err == nil {
			t.Fatalf("miscalibrated term1 passed at W=%d", tc.w)
		}
		if !strings.Contains(err.Error(), "term1") || !strings.Contains(err.Error(), fmt.Sprintf("W=%d ", tc.w)) {
			t.Errorf("error %q does not name term1 and W=%d", err, tc.w)
		}
	}
}

// TestPortfolioSmoke runs the portfolio study on two instances. Every
// column races through one portfolio.Run loop at each portfolio seed,
// so each instance crowns one winner per column and seed, the single
// strategy's one-lane runs included, and only the sharing column's
// lanes import clauses.
func TestPortfolioSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	// The -quick pair: its refutations run long enough for two lanes
	// to exchange clauses even on one CPU.
	r, err := RunPortfolio(PortfolioConfig{
		Instances: mcnc.Table2Instances()[:2],
		Timeout:   2 * time.Minute,
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 2 || len(r.Columns) != 6 {
		t.Fatalf("result shape: %d instances, %d columns", len(r.Instances), len(r.Columns))
	}
	for ci, c := range r.Columns {
		if len(c.Cells) != len(r.Instances) || r.Speedup(ci) <= 0 {
			t.Fatalf("column %s: %d instances, speedup %v", c.Name, len(c.Cells), r.Speedup(ci))
		}
		var imported int64
		for _, cells := range c.Cells {
			if len(cells) != PortfolioSeeds {
				t.Fatalf("column %s: %d seeds, want %d", c.Name, len(cells), PortfolioSeeds)
			}
			for _, cell := range cells {
				if cell.Wall <= 0 || cell.Winner < 0 || cell.Winner >= len(c.Members) {
					t.Fatalf("column %s: cell %+v", c.Name, cell)
				}
				imported += cell.Imported
			}
		}
		if c.Share != (imported > 0) {
			t.Errorf("column %s (share %v) imported %d clauses", c.Name, c.Share, imported)
		}
	}
	var wins int64
	for name, n := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, portfolio.MetricWins+".") {
			wins += n
		}
	}
	if want := int64(len(r.Columns) * PortfolioSeeds * len(r.Instances)); wins != want {
		t.Errorf("%s.* counters sum to %d, want %d", portfolio.MetricWins, wins, want)
	}
	if !strings.Contains(r.Markdown(), "Portfolio study") {
		t.Error("markdown missing header")
	}
	var buf bytes.Buffer
	if err := r.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ParseBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "portfolio" {
		t.Fatalf("bench %q, want portfolio", rep.Bench)
	}
	for _, s := range rep.Series {
		if want := len(r.Instances) * len(r.Columns) * PortfolioSeeds; len(s.Points) != want {
			t.Errorf("series %s: %d points, want %d", s.Name, len(s.Points), want)
		}
	}
}

func TestSizesSmoke(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSizes(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("%d rows, want 15 encodings", len(r.Rows))
	}
	byName := map[string]SizeRow{}
	for _, row := range r.Rows {
		if row.Vars <= 0 || row.Clauses <= 0 {
			t.Errorf("%s: empty census", row.Encoding)
		}
		if row.Clauses != row.Structural+row.Conflict {
			t.Errorf("%s: clause split inconsistent", row.Encoding)
		}
		byName[row.Encoding] = row
	}
	// Structural expectations: ITE encodings need no structural
	// clauses; direct has more clauses than muldirect; log variables
	// are fewest.
	if byName["ITE-linear"].Structural != 0 || byName["ITE-log"].Structural != 0 {
		t.Error("ITE encodings should have no structural clauses")
	}
	if byName["direct"].Clauses <= byName["muldirect"].Clauses {
		t.Error("direct should have more clauses than muldirect")
	}
	if byName["log"].Vars >= byName["direct"].Vars {
		t.Error("log should use fewer variables than direct")
	}
	if !strings.Contains(r.Markdown(), "Encoding sizes") {
		t.Error("markdown missing header")
	}
}

func TestRunStrategyTimeout(t *testing.T) {
	in, err := mcnc.ByName("k2")
	if err != nil {
		t.Fatal(err)
	}
	g, translate, err := BuildInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	s := mustStrategy(t, "muldirect/-")
	var pool sat.Pool
	tm := RunStrategy(g, in.UnroutableW(), s, sat.Options{}, translate, time.Millisecond, &pool)
	if tm.Status == sat.Sat {
		t.Fatal("unsat instance reported Sat")
	}
	if tm.Translate != translate {
		t.Fatal("translate time not propagated")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[string]string{
		"1.50":  fmtDur(1500*time.Millisecond, false),
		">12.0": fmtDur(12*time.Second, true),
		"150":   fmtDur(150*time.Second, false),
	}
	for want, got := range cases {
		if got != want {
			t.Errorf("fmtDur: got %q, want %q", got, want)
		}
	}
}

func mustStrategy(t *testing.T, s string) core.Strategy {
	t.Helper()
	st, err := core.ParseStrategy(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSolverCompareSmoke(t *testing.T) {
	g := SolverGrid(quickInstances(t))
	g.Timeout = 2 * time.Minute
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) < 2 || len(r.Instances) != 2 {
		t.Fatalf("shape: %v %v", r.Columns, r.Instances)
	}
	unsatTotal, _ := r.columnTotals(0, solveTime)
	satTotal, _ := r.columnTotals(1, solveTime)
	for pi := range r.Columns {
		if unsatTotal[pi] <= 0 || satTotal[pi] <= 0 {
			t.Fatal("nonpositive totals")
		}
	}
	if !strings.Contains(r.SolverMarkdown(), "Solver-profile comparison") {
		t.Error("markdown missing header")
	}
}

func TestTreeAblationSmoke(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	g := TreeGrid(in)
	g.Timeout = 2 * time.Minute
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 5 {
		t.Fatalf("%d shapes, want 5 (linear, balanced, 3 random)", len(r.Columns))
	}
	if !strings.Contains(r.TreeMarkdown(), "ITE-tree shape ablation") {
		t.Error("markdown missing header")
	}
}

func TestSymmetryAblationSmoke(t *testing.T) {
	g := SymmetryGrid(quickInstances(t))
	g.Timeout = 2 * time.Minute
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 4 {
		t.Fatalf("columns: %v", r.Columns)
	}
	for _, col := range []string{"ITE-linear-2+muldirect/-", "ITE-linear-2+muldirect/b1",
		"ITE-linear-2+muldirect/s1", "ITE-linear-2+muldirect/c1"} {
		found := false
		for _, c := range r.Columns {
			if c.Name == col {
				found = true
			}
		}
		if !found {
			t.Errorf("missing column %s", col)
		}
	}
	for ii := range r.Cells {
		for _, c := range r.Cells[ii][0] {
			if c.Status == sat.Sat {
				t.Error("ablation instance unexpectedly satisfiable")
			}
		}
	}
}

func TestBaselinesSmoke(t *testing.T) {
	r, err := RunBaselines(quickInstances(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.GreedyOrder < row.MinW || row.GreedyDeg < row.MinW || row.DSATUR < row.MinW {
			t.Fatalf("%s: a heuristic beat the proven minimum: %+v", row.Instance, row)
		}
	}
	a, b, c := r.ExcessTracks()
	if a < 0 || b < 0 || c < 0 {
		t.Fatal("negative excess")
	}
	if !strings.Contains(r.Markdown(), "One-net-at-a-time baselines") {
		t.Error("markdown missing header")
	}
}

func TestTable2TimeoutRendering(t *testing.T) {
	// Force a timeout on a hard instance and check the ">" and "≥"
	// markers appear in the rendered table.
	in, err := mcnc.ByName("k2")
	if err != nil {
		t.Fatal(err)
	}
	g := Table2Grid([]mcnc.Instance{in})
	g.Columns = strategyColumns("muldirect/-", "ITE-log/s1")
	g.Timeout = 10 * time.Millisecond
	r, err := RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells[0][0][0].Status != sat.Unknown {
		t.Skip("baseline finished within 10ms; cannot exercise timeout rendering")
	}
	md := r.Table2Markdown()
	if !strings.Contains(md, ">") {
		t.Fatalf("capped-cell marker missing:\n%s", md)
	}
	// The speedup row carries a bound marker: "≥" when only the
	// baseline is capped, "≤" when only the other column is, "~" when
	// both are.
	if !strings.ContainsAny(md, "≥≤~") {
		t.Fatalf("speedup bound marker missing:\n%s", md)
	}
}
