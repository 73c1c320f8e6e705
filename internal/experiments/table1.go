package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
)

// Table1 reproduces Table 1 of the paper: the clauses generated by the
// log, direct and muldirect encodings for a graph-coloring problem
// with two adjacent vertices v and w, each with domain {0,1,2} — the
// constraints for two electrically distinct 2-pin nets sharing a
// connection block with 3 tracks.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one encoding's clause census for the example.
type Table1Row struct {
	Encoding   string
	AtLeastOne []string
	AtMostOne  []string
	Conflict   []string
	Excluded   []string
	Vars       int
}

// RunTable1 generates the example encodings. Variable naming follows
// the paper: the log encoding's variables are l_v1,l_v2,l_w1,l_w2;
// direct and muldirect use x_v0..x_v2, x_w0..x_w2.
func RunTable1() *Table1 {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Freeze()
	out := &Table1{}
	for _, kind := range []core.Kind{core.KindLog, core.KindDirect, core.KindMuldirect} {
		enc := core.NewSimple(kind)
		e := core.Encode(core.NewCSP(g, 3), enc)
		row := Table1Row{Encoding: kind.String(), Vars: e.CNF.NumVars}
		name := table1VarNamer(kind, e.CNF.NumVars)
		for i := range e.CNF.NumClauses() {
			cl := e.CNF.Clause(i)
			s := renderClause(cl, name)
			switch classifyTable1Clause(cl, e) {
			case "at-least-one":
				row.AtLeastOne = append(row.AtLeastOne, s)
			case "at-most-one":
				row.AtMostOne = append(row.AtMostOne, s)
			case "conflict":
				row.Conflict = append(row.Conflict, s)
			default:
				row.Excluded = append(row.Excluded, s)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// table1VarNamer maps DIMACS variables to the paper's names. Encoding
// allocates vertex v's variables first, then w's.
func table1VarNamer(kind core.Kind, numVars int) func(int) string {
	perVertex := numVars / 2
	return func(v int) string {
		vertex, idx := "v", v-1
		if idx >= perVertex {
			vertex, idx = "w", idx-perVertex
		}
		if kind == core.KindLog {
			return fmt.Sprintf("l_%s%d", vertex, idx+1)
		}
		return fmt.Sprintf("x_%s%d", vertex, idx)
	}
}

// classifyTable1Clause assigns a clause to the paper's four columns.
func classifyTable1Clause(cl []int32, e *core.Encoded) string {
	pos, neg := 0, 0
	spansBoth := spansBothVertices(cl, e.CNF.NumVars/2)
	for _, l := range cl {
		if l > 0 {
			pos++
		} else {
			neg++
		}
	}
	switch {
	case spansBoth:
		return "conflict"
	case neg == 0:
		return "at-least-one"
	case len(cl) == 2 && neg == 2 && e.Encoding.Name() == "direct":
		return "at-most-one"
	default:
		return "excluded-illegal-values"
	}
}

func spansBothVertices(cl []int32, perVertex int) bool {
	var lo, hi bool
	for _, l := range cl {
		if abs(int(l)) <= perVertex {
			lo = true
		} else {
			hi = true
		}
	}
	return lo && hi
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// renderClause prints a clause as a disjunction with named variables,
// literals sorted by variable for readability.
func renderClause(cl []int32, name func(int) string) string {
	sorted := make([]int, len(cl))
	for i, l := range cl {
		sorted[i] = int(l)
	}
	sort.Slice(sorted, func(i, j int) bool { return abs(sorted[i]) < abs(sorted[j]) })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		if l > 0 {
			parts[i] = name(l)
		} else {
			parts[i] = "¬" + name(-l)
		}
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// Markdown renders the table.
func (t *Table1) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Table 1 — clauses generated for two adjacent vertices with domain {0,1,2}\n\n")
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Encoding,
			cellOrDash(r.AtLeastOne),
			cellOrDash(r.AtMostOne),
			cellOrDash(r.Conflict),
			cellOrDash(r.Excluded),
		})
	}
	sb.WriteString(markdownTable(
		[]string{"Encoding", "at-least-one", "at-most-one", "conflict", "excluded-illegal-values"},
		rows))
	return sb.String()
}

func cellOrDash(clauses []string) string {
	if len(clauses) == 0 {
		return "—"
	}
	return strings.Join(clauses, " ")
}
