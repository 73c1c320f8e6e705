package fpga

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"fpgasat/internal/graph"
)

// writeRouting hashes every field of every route: parent net, subnet
// index, end pins and segment path.
func writeRouting(h hash.Hash, gr *GlobalRouting) {
	for _, r := range gr.Routes {
		fmt.Fprintf(h, "r %d %d %v %v %v\n", r.Net, r.Index, r.Src, r.Dst, r.Segs)
	}
}

// writeGraph hashes a conflict graph of gr: size, every CSR row with
// its edge weights, and the label of each vertex's route.
func writeGraph(h hash.Hash, gr *GlobalRouting, g *graph.Graph) {
	fmt.Fprintf(h, "g %d %d %v\n", g.N(), g.M(), g.Weighted())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "%d:", v)
		for _, u := range g.Neighbors(v) {
			fmt.Fprintf(h, " %d/%d", u, g.EdgeWeight(v, int(u)))
		}
		fmt.Fprintln(h)
	}
	labels := make([]string, len(gr.Routes))
	for i, r := range gr.Routes {
		labels[i] = r.Label(gr.Netlist)
	}
	fmt.Fprintf(h, "l %q\n", labels)
}

// TestRouteGlobalPinned holds the router and the conflict-graph
// builder to their exact output over a sweep of generator parameters
// (1×1 arrays, unconstrained placement, nets of up to 6 pins) and
// three negotiation settings. Any change to tie-breaking, cost
// arithmetic or iteration order moves the digest.
func TestRouteGlobalPinned(t *testing.T) {
	const want = "88f2dacdb47f89b75a223ec8c955e4bdb74d806c2d2b7ad06050e797b82e5eed"
	opts := []RouteOptions{
		{},
		{Capacity: 2, MaxIters: 5},
		{Capacity: 6, PresFac: 0.1, HistFac: 1.5},
	}
	h := sha256.New()
	for _, dims := range [][2]int{{1, 1}, {1, 4}, {3, 2}, {5, 5}, {8, 8}} {
		for _, pins := range [][2]int{{2, 2}, {2, 4}, {3, 6}} {
			for _, loc := range []int{0, 2} {
				for seed := int64(1); seed <= 2; seed++ {
					p := GenParams{
						Rows: dims[0], Cols: dims[1], NumNets: 1 + dims[0]*dims[1],
						MinPins: pins[0], MaxPins: pins[1], Locality: loc, Seed: seed,
					}
					nl, err := Generate("p", p)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range opts {
						gr, converged, err := RouteGlobal(nl, o)
						if err != nil {
							t.Fatalf("%+v %+v: %v", p, o, err)
						}
						fmt.Fprintf(h, "%+v %+v converged=%v\n", p, o, converged)
						writeRouting(h, gr)
						for x := 0; x <= 3; x++ {
							writeGraph(h, gr, gr.ConflictGraphXtalk(x))
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("routing sweep digest = %s, want %s", got, want)
	}
}
