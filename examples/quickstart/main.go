// Quickstart: the whole SAT-based detailed-routing flow on a small
// synthetic FPGA — generate a placed netlist, compute a global
// routing, translate to graph coloring and then to CNF, and decide
// routability for two channel widths.
package main

import (
	"context"
	"fmt"
	"log"

	fpgasat "fpgasat"
)

func main() {
	log.SetFlags(0)

	// 1. A small placed circuit: 6x6 CLB array, 30 random nets.
	netlist, err := fpgasat.Generate("quickstart", fpgasat.GenParams{
		Rows: 6, Cols: 6, NumNets: 30, MinPins: 2, MaxPins: 4, Locality: 3, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d nets, %d pins on a %dx%d array\n",
		len(netlist.Nets), netlist.NumPins(), netlist.Arch.Cols, netlist.Arch.Rows)

	// 2. Global routing (the input of the detailed-routing problem).
	global, converged, err := fpgasat.RouteGlobal(netlist, fpgasat.RouteOptions{Capacity: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global routing: %d 2-pin nets, wirelength %d, max congestion %d (converged=%v)\n",
		len(global.Routes), global.TotalWirelength(), global.MaxCongestion(), converged)

	// 3. Detailed routing as graph coloring: vertices are 2-pin nets,
	// edges join nets of different multi-pin nets sharing a connection
	// block, colors are tracks.
	conflict := global.ConflictGraph()
	fmt.Printf("conflict graph: %d vertices, %d edges\n", conflict.N(), conflict.M())

	// 4. Translate to SAT with the paper's best strategy and solve for
	// two widths around the threshold.
	strategy, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		log.Fatal(err)
	}
	for w := global.MaxCongestion() + 1; w >= global.MaxCongestion()-1 && w >= 1; w-- {
		res, err := strategy.Solve(context.Background(), conflict, w, nil, fpgasat.SolverOptions{})
		if err != nil {
			log.Fatal(err)
		}
		switch res.Status {
		case fpgasat.Sat:
			detailed, err := fpgasat.AssignTracks(global, res.Colors, w)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("W=%d: ROUTABLE (%d vars, %d clauses); first nets: ", w, res.Vars, res.Clauses)
			for i := 0; i < 3 && i < len(detailed.Tracks); i++ {
				fmt.Printf("%s->track%d ", global.Routes[i].Label(netlist), detailed.Tracks[i])
			}
			fmt.Println()
		case fpgasat.Unsat:
			fmt.Printf("W=%d: UNROUTABLE — proven, so any routing found at W=%d is optimal\n", w, w+1)
		}
	}
}
