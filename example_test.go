package fpgasat_test

import (
	"context"
	"fmt"
	"strings"

	fpgasat "fpgasat"
)

// ExampleParseStrategy shows the paper's strategy naming: an encoding
// name optionally followed by a symmetry-breaking heuristic.
func ExampleParseStrategy() {
	s, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name())
	fmt.Println(s.Encoding.Multivalued())
	// Output:
	// ITE-linear-2+muldirect/s1
	// true
}

// ExampleEncodeCSP encodes a triangle 3-coloring with the muldirect
// encoding and solves it.
func ExampleEncodeCSP() {
	g, _ := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"))
	csp := fpgasat.NewCSP(g, 3)
	enc := fpgasat.EncodeCSP(csp, fpgasat.NewSimple(fpgasat.KindMuldirect))
	fmt.Println(enc.CNF.NumVars, "variables,", enc.CNF.NumClauses(), "clauses")
	res := fpgasat.SolveCNFContext(context.Background(), enc.CNF, fpgasat.SolverOptions{})
	fmt.Println(res.Status)
	colors, _ := enc.Decode(res.Model)
	fmt.Println("proper:", fpgasat.VerifyColoring(g, colors, 3) == nil)
	// Output:
	// 9 variables, 12 clauses
	// SATISFIABLE
	// proper: true
}

// ExampleCNF_Clause builds a formula and reads it back clause by
// clause: the clauses sit back to back in one literal slab, and Clause
// returns a read-only view of one of them in DIMACS convention.
func ExampleCNF_Clause() {
	var cnf fpgasat.CNF
	cnf.AddClause(1, -2)
	cnf.AddClause(2, 3, -1)
	for i := range cnf.NumClauses() {
		fmt.Println(cnf.Clause(i))
	}
	fmt.Println(cnf.NumVars, "variables,", cnf.NumLiterals(), "literals")
	var out strings.Builder
	if err := fpgasat.WriteCNFDIMACS(&out, &cnf); err != nil {
		panic(err)
	}
	fmt.Print(out.String())
	// Output:
	// [1 -2]
	// [2 3 -1]
	// 3 variables, 5 literals
	// p cnf 3 2
	// 1 -2 0
	// 2 3 -1 0
}

// ExampleEncodingByName lists the Boolean variables each paper
// encoding allocates for a single CSP variable with 13 domain values
// (the domain size of the paper's Fig. 1).
func ExampleEncodingByName() {
	for _, name := range []string{"log", "muldirect", "ITE-linear", "ITE-log-2+ITE-linear"} {
		enc, err := fpgasat.EncodingByName(name)
		if err != nil {
			panic(err)
		}
		fmt.Println(enc.Name())
	}
	// Output:
	// log
	// muldirect
	// ITE-linear
	// ITE-log-2+ITE-linear
}

// ExampleNewSession shows the reusable solving context: a Session
// owns a solver pool and a metrics registry, so back-to-back solves
// recycle clause arenas instead of reallocating them.
func ExampleNewSession() {
	sess := fpgasat.NewSession(fpgasat.NewMetrics())
	g, _ := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"))
	strat, _ := fpgasat.ParseStrategy("muldirect/s1")
	for _, k := range []int{3, 2} {
		status, colors, err := sess.SolveGraph(context.Background(), g, k, strat, fpgasat.SolverOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("width %d: %v (%d tracks assigned)\n", k, status, len(colors))
	}
	ps := sess.PoolStats()
	fmt.Printf("solvers handed out: %d, recycled: %d\n", ps.Gets, ps.Reuses)
	// Output:
	// width 3: SATISFIABLE (3 tracks assigned)
	// width 2: UNSATISFIABLE (0 tracks assigned)
	// solvers handed out: 2, recycled: 1
}

// ExampleSession_minWidth finds the minimum routable channel width of
// a conflict graph with the incremental assumption-based search (a
// 5-cycle needs 3 colors).
func ExampleSession_minWidth() {
	sess := fpgasat.NewSession(nil)
	g, _ := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"))
	strat, _ := fpgasat.ParseStrategy("muldirect")
	res, err := sess.MinWidth(context.Background(), g, fpgasat.SearchOptions{Strategy: strat, Hi: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println("min width:", res.MinWidth, "proved optimal:", res.ProvedOptimal)
	fmt.Println("coloring verified:", fpgasat.VerifyColoring(g, res.Colors, res.MinWidth) == nil)
	// Output:
	// min width: 3 proved optimal: true
	// coloring verified: true
}

// ExampleSession_portfolioHardened races the paper's 3-strategy
// portfolio under full supervision: panic isolation, and paranoid
// verification of the answer (Sat models re-checked against the
// conflict edges, Unsat answers replayed through the DRAT checker).
func ExampleSession_portfolioHardened() {
	sess := fpgasat.NewSession(nil)
	g, _ := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"))
	strategies, _ := fpgasat.PaperPortfolio3()
	win, all, err := sess.PortfolioHardened(context.Background(), g, 2, strategies,
		fpgasat.PortfolioOptions{Verify: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("answer:", win.Status)
	fmt.Println("lanes raced:", len(all))
	// Output:
	// answer: UNSATISFIABLE
	// lanes raced: 3
}

// ExampleNewCSP shows symmetry breaking shrinking color domains: the
// i-th selected vertex may only use colors < i+1.
func ExampleNewCSP() {
	g, _ := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"))
	csp := fpgasat.NewCSP(g, 3)
	csp.ApplySequence([]int{0, 1}) // vertex 0 -> {0}, vertex 1 -> {0,1}
	fmt.Println(csp.Domain)
	// Output:
	// [1 2 3 3]
}
