// Encodings: a tour of the CSP-to-SAT encoding framework — the clause
// shapes of Table 1, the ITE-tree patterns of Figure 1, arbitrary tree
// shapes, and the formula-size trade-offs across all 14 paper
// encodings on one graph.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fpgasat/internal/core"
	"fpgasat/internal/experiments"
	"fpgasat/internal/graph"
)

func main() {
	log.SetFlags(0)

	// Table 1: the clauses of the previously used encodings on two
	// adjacent CSP variables with 3 colors.
	fmt.Print(experiments.RunTable1().Markdown())

	// Figure 1: the indexing Boolean patterns of the ITE-tree
	// encodings for a 13-value domain.
	fig, err := experiments.RunFigure1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig.Markdown())

	// Arbitrary ITE-tree shapes (Sect. 3: "the ITE tree for a CSP
	// variable can have any structure"): a random tree still selects
	// exactly one value per assignment, so it needs no structural
	// clauses and is a drop-in encoding.
	shape := core.RandomShape(rand.New(rand.NewSource(7)))
	custom := core.NewITETree("ITE-random", shape)
	cubes, nvars, err := core.DescribeVariable(custom, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("### A random ITE-tree encoding for 13 values (%d variables)\n\n", nvars)
	for c, cube := range cubes[:4] {
		fmt.Printf("  v%d selected by a %d-literal pattern %v\n", c, len(cube), cube)
	}
	fmt.Println("  ...")

	// Encode one graph under every paper encoding and compare formula
	// sizes: the structural trade-offs behind the Table 2 results.
	g := graph.Random(rand.New(rand.NewSource(3)), 60, 0.25)
	k := 7
	fmt.Printf("\n### Formula sizes for a %d-vertex, %d-edge graph with k=%d\n\n", g.N(), g.M(), k)
	fmt.Printf("%-24s %8s %9s %8s %11s\n", "encoding", "vars", "clauses", "binary", "literals")
	for _, name := range core.PaperEncodingNames {
		enc, err := core.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		e := core.Encode(core.NewCSP(g, k), enc)
		binary := 0
		for i := range e.CNF.NumClauses() {
			if len(e.CNF.Clause(i)) == 2 {
				binary++
			}
		}
		fmt.Printf("%-24s %8d %9d %8d %11d\n", name, e.CNF.NumVars, e.CNF.NumClauses(), binary, e.CNF.NumLiterals())
	}
}
