package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseDIMACSGraph fuzzes the DIMACS edge-format parser — the only
// input-facing parser in the flow's front end. The parser must never
// panic, and any graph it accepts must satisfy the CSR invariants and
// survive a Write/Parse round-trip unchanged.
func FuzzParseDIMACSGraph(f *testing.F) {
	seeds := []string{
		"p edge 3 2\ne 1 2\ne 2 3\n",
		"c comment\np col 4 2\ne 1 4\ne 2 3\n",
		"p edge 5 3\nn 1 7\ne 1 2\ne 1 2\ne 4 5\n", // duplicate edge lines
		"p edge 2 1\ne 1 1\n",                      // self-loop (rejected)
		"p edge 2 1\ne 1 9\n",                      // out-of-range vertex
		"p edge 1000000000 0\n",                    // OOM-by-header probe
		"p edge 0 0\n",
		"p edge 4 0\n\n\nc trailing\n",
		"e 1 2\np edge 2 1\n", // edge before header
		"p edge 3 2\ne 1 2\n", // fewer edges than declared
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseDIMACS(bytes.NewReader(data), MaxParseVertices)
		if err != nil {
			return
		}
		// Invariants of any accepted graph.
		if g.N() < 0 || g.M() < 0 || g.N() > MaxParseVertices {
			t.Fatalf("accepted graph with N=%d M=%d", g.N(), g.M())
		}
		degSum := 0
		for v := 0; v < g.N(); v++ {
			row := g.Neighbors(v)
			degSum += len(row)
			for i, u := range row {
				if int(u) == v {
					t.Fatalf("self-loop at %d survived parsing", v)
				}
				if int(u) < 0 || int(u) >= g.N() {
					t.Fatalf("neighbor %d of %d out of range", u, v)
				}
				if i > 0 && row[i-1] >= u {
					t.Fatalf("Neighbors(%d) not strictly sorted: %v", v, row)
				}
				if !g.HasEdge(v, int(u)) || !g.HasEdge(int(u), v) {
					t.Fatalf("asymmetric adjacency {%d,%d}", v, u)
				}
			}
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2*M (%d)", degSum, 2*g.M())
		}
		// Round-trip: write and reparse must reproduce the graph.
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("WriteDIMACS: %v", err)
		}
		h, err := ParseDIMACS(strings.NewReader(buf.String()), MaxParseVertices)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, buf.String())
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round-trip changed N/M: %d/%d -> %d/%d", g.N(), g.M(), h.N(), h.M())
		}
		ge, he := edgeList(g), edgeList(h)
		for i := range ge {
			if ge[i] != he[i] {
				t.Fatalf("round-trip changed edge %d: %v -> %v", i, ge[i], he[i])
			}
		}
	})
}

// FuzzParseWeightedDIMACS fuzzes the bandwidth-coloring extension of
// the DIMACS parser ("e u v d" lines). On top of the CSR invariants it
// checks the weight invariants: every accepted distance is in
// [1, MaxParseDistance], stored symmetrically, the distance-1 normal
// form holds (Weighted() iff some edge distance >= 2), and weighted
// graphs survive a Write/Parse round trip with distances intact.
func FuzzParseWeightedDIMACS(f *testing.F) {
	seeds := []string{
		"p edge 3 2\ne 1 2 2\ne 2 3 3\n",
		"p edge 4 3\ne 1 2 1\ne 2 3 1\ne 3 4 1\n",   // all-1: unweighted normal form
		"p edge 3 2\ne 1 2\ne 2 3 4\n",              // mixed plain and weighted lines
		"p edge 3 3\ne 1 2 2\ne 2 1 5\ne 1 3 1\n",   // duplicate edge, larger distance wins
		"p edge 2 1\ne 1 2 0\n",                     // distance < 1 (rejected)
		"p edge 2 1\ne 1 2 -3\n",                    // negative distance (rejected)
		"p edge 2 1\ne 1 2 1048577\n",               // beyond MaxParseDistance (rejected)
		"p edge 2 1\ne 1 2 999999999999999999999\n", // overflow probe
		"c bandwidth\np col 5 2\ne 1 5 7\ne 2 3 7\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseDIMACS(bytes.NewReader(data), MaxParseVertices)
		if err != nil {
			return
		}
		maxSeen := 0
		g.ForEachWeightedEdge(func(u, v, d int) {
			if d < 1 || d > MaxParseDistance {
				t.Fatalf("edge {%d,%d} accepted with distance %d", u, v, d)
			}
			if g.EdgeWeight(u, v) != d || g.EdgeWeight(v, u) != d {
				t.Fatalf("asymmetric distance on {%d,%d}: %d vs %d/%d",
					u, v, d, g.EdgeWeight(u, v), g.EdgeWeight(v, u))
			}
			if d > maxSeen {
				maxSeen = d
			}
		})
		if g.Weighted() != (maxSeen >= 2) {
			t.Fatalf("Weighted()=%v but max distance is %d — normal form violated", g.Weighted(), maxSeen)
		}
		if got := g.MaxEdgeWeight(); g.M() > 0 && got != maxSeen {
			t.Fatalf("MaxEdgeWeight=%d, iteration saw %d", got, maxSeen)
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatalf("WriteDIMACS: %v", err)
		}
		h, err := ParseDIMACS(strings.NewReader(buf.String()), MaxParseVertices)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, buf.String())
		}
		if h.N() != g.N() || h.M() != g.M() || h.Weighted() != g.Weighted() {
			t.Fatalf("round-trip changed shape: N %d->%d M %d->%d W %v->%v",
				g.N(), h.N(), g.M(), h.M(), g.Weighted(), h.Weighted())
		}
		bad := false
		g.ForEachWeightedEdge(func(u, v, d int) {
			if h.EdgeWeight(u, v) != d {
				bad = true
			}
		})
		if bad {
			t.Fatalf("round-trip changed a distance\n%s", buf.String())
		}
	})
}
