// Package coloring provides graph-coloring baselines and verification:
// greedy and DSATUR heuristics (upper bounds), a clique heuristic
// (lower bound), and an exact branch-and-bound search. The SAT-based
// flow in package core is the paper's contribution; these baselines
// bound the width search that calibrates benchmark instances
// (mcnc.FindChi), serve as the one-net-at-a-time comparison of the
// experiments, and cross-check SAT answers in tests.
package coloring

import (
	"fmt"
	"sort"

	"fpgasat/internal/graph"
)

// Verify checks that colors is a proper coloring of g using at most k
// colors (values 0..k-1, one per vertex). On weighted graphs the check
// is the bandwidth-coloring condition |colors[u]-colors[v]| >= d for
// every edge distance d. A nil error means proper.
func Verify(g *graph.Graph, colors []int, k int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c >= k {
			return fmt.Errorf("coloring: vertex %d has color %d outside [0,%d)", v, c, k)
		}
	}
	var bad error
	g.ForEachWeightedEdge(func(u, v, d int) {
		if bad != nil {
			return
		}
		diff := colors[u] - colors[v]
		if diff < 0 {
			diff = -diff
		}
		if diff >= d {
			return
		}
		if d == 1 {
			bad = fmt.Errorf("coloring: edge {%d,%d} monochromatic (color %d)",
				u, v, colors[u])
		} else {
			bad = fmt.Errorf("coloring: edge {%d,%d} colors %d,%d closer than distance %d",
				u, v, colors[u], colors[v], d)
		}
	})
	return bad
}

// Greedy colors vertices in the given order (or 0..n-1 if order is
// nil) with the smallest available color, returning the coloring and
// the number of colors used.
func Greedy(g *graph.Graph, order []int) ([]int, int) {
	n := g.N()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	used := 0
	forbidden := make([]int, n+1) // stamp per color
	for step, v := range order {
		stamp := step + 1
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c >= 0 {
				forbidden[c] = stamp
			}
		}
		c := 0
		for forbidden[c] == stamp {
			c++
		}
		colors[v] = c
		if c+1 > used {
			used = c + 1
		}
	}
	return colors, used
}

// DSATUR colors the graph with the saturation-degree heuristic and
// returns the coloring and number of colors used. It is a strong upper
// bound on the chromatic number.
func DSATUR(g *graph.Graph) ([]int, int) {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	satur := make([]map[int]struct{}, n)
	for i := range satur {
		satur[i] = make(map[int]struct{})
	}
	used := 0
	for step := 0; step < n; step++ {
		// Pick the uncolored vertex with max saturation, tie-break on
		// degree then index (deterministic).
		best := -1
		for v := 0; v < n; v++ {
			if colors[v] >= 0 {
				continue
			}
			if best < 0 {
				best = v
				continue
			}
			sv, sb := len(satur[v]), len(satur[best])
			if sv > sb || (sv == sb && g.Degree(v) > g.Degree(best)) {
				best = v
			}
		}
		c := 0
		for {
			if _, bad := satur[best][c]; !bad {
				break
			}
			c++
		}
		colors[best] = c
		if c+1 > used {
			used = c + 1
		}
		for _, u := range g.Neighbors(best) {
			if colors[u] < 0 {
				satur[u][c] = struct{}{}
			}
		}
	}
	return colors, used
}

// GreedyClique grows a clique greedily from each of the highest-degree
// vertices and returns the best clique found — a lower bound on the
// chromatic number.
func GreedyClique(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	var best []int
	tries := 12
	if tries > n {
		tries = n
	}
	for t := 0; t < tries; t++ {
		clique := []int{order[t]}
		for _, v := range order {
			if v == order[t] {
				continue
			}
			ok := true
			for _, u := range clique {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) > len(best) {
			best = clique
		}
	}
	return best
}
