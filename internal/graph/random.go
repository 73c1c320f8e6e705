package graph

import "math/rand"

// Random returns an Erdős–Rényi G(n,p) graph drawn from rng. Used by
// tests and by encoding ablation benchmarks; FPGA-derived graphs come
// from package fpga instead.
func Random(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Freeze()
}

// Complete returns the complete graph K_n, whose chromatic number is
// exactly n — a useful hard case for unsatisfiability tests.
func Complete(n int) *Graph {
	return FromEdgeStream(n, func(emit func(u, v, d int)) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(u, v, 1)
			}
		}
	})
}

// Cycle returns the cycle C_n (chromatic number 2 for even n, 3 for
// odd n). It panics for n < 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 vertices")
	}
	return FromEdgeStream(n, func(emit func(u, v, d int)) {
		for v := 0; v < n; v++ {
			emit(v, (v+1)%n, 1)
		}
	})
}
