package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxParseVertices is the vertex limit for reading a DIMACS file. The
// DIMACS header declares the vertex count before any edge appears, so
// without a limit a one-line file ("p edge 1000000000 0") could commit
// gigabytes before parsing a single edge. This one admits every
// published .col benchmark with two orders of magnitude to spare.
const MaxParseVertices = 1 << 25

// MaxParseDistance caps the per-edge distance ParseDIMACS accepts in
// the weighted extension ("e u v d" lines). Distances beyond the color
// domain are clamped by the encoders anyway, so a huge value only
// inflates clause counts; the cap keeps hostile inputs from requesting
// absurd windows.
const MaxParseDistance = 1 << 20

// WriteDIMACS writes the graph in the DIMACS edge format used by the
// graph-coloring benchmark collections ("p edge N M" header, "e u v"
// lines, vertices 1-based), the intermediate format of the paper's
// two-step tool flow. Weighted graphs use the bandwidth-coloring
// extension: every edge line carries its distance as a fourth field
// ("e u v d"), which ParseDIMACS round-trips.
func WriteDIMACS(w io.Writer, g *Graph, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	if g.Weighted() {
		g.ForEachWeightedEdge(func(u, v, d int) {
			if werr != nil {
				return
			}
			_, werr = fmt.Fprintf(bw, "e %d %d %d\n", u+1, v+1, d)
		})
	} else {
		g.ForEachEdge(func(u, v int) {
			if werr != nil {
				return
			}
			_, werr = fmt.Fprintf(bw, "e %d %d\n", u+1, v+1)
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS edge-format graph into CSR form. Duplicate
// edges are merged (keeping the largest distance); "n"-lines (vertex
// weights in some collections) are skipped. Edge lines may carry an
// optional fourth field — the bandwidth-coloring distance d >= 1
// ("e u v d"), bounded by MaxParseDistance — and a file whose distances
// are all 1 parses to a plain unweighted graph. A declared vertex
// count above maxVertices is an error, storage grows with the
// edge lines read (the CSR offsets for the declared count are allocated
// once, at the end), and the number of edge lines read must match the
// edge count the header declared — a mismatch is an input error, not a
// silently wrong graph.
func ParseDIMACS(r io.Reader, maxVertices int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b *Builder
	declaredEdges := 0
	edgeLines := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "c", "n":
			continue
		case "p":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) != 4 || (fields[1] != "edge" && fields[1] != "col") {
				return nil, fmt.Errorf("graph: line %d: malformed header %q", line, text)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count", line)
			}
			if n > maxVertices {
				return nil, fmt.Errorf("graph: line %d: declared vertex count %d exceeds limit %d",
					line, n, maxVertices)
			}
			m, err := strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad edge count", line)
			}
			declaredEdges = m
			b = NewBuilder(n)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 1 || v < 1 || u > b.N() || v > b.N() {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
			}
			if u == v {
				return nil, fmt.Errorf("graph: line %d: self-loop %d", line, u)
			}
			d := 1
			if len(fields) == 4 {
				var err error
				d, err = strconv.Atoi(fields[3])
				if err != nil || d < 1 {
					return nil, fmt.Errorf("graph: line %d: bad edge distance %q", line, text)
				}
				if d > MaxParseDistance {
					return nil, fmt.Errorf("graph: line %d: edge distance %d exceeds limit %d",
						line, d, MaxParseDistance)
				}
			}
			edgeLines++
			if edgeLines > declaredEdges {
				return nil, fmt.Errorf("graph: line %d: more edge lines than the %d the header declared",
					line, declaredEdges)
			}
			b.AddWeightedEdge(u-1, v-1, d)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown line type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if edgeLines != declaredEdges {
		return nil, fmt.Errorf("graph: header declared %d edges but %d edge lines followed",
			declaredEdges, edgeLines)
	}
	return b.Freeze(), nil
}
