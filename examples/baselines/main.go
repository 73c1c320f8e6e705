// Baselines: why solve detailed routing with SAT at all? Conventional
// routers assign tracks one net at a time; on tight channels they need
// more tracks than necessary and can never prove a width infeasible.
// This example routes a benchmark with one-net-at-a-time greedy
// assignment, with DSATUR, and with the SAT flow, and renders the
// channel occupancy of the array.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
)

func main() {
	log.SetFlags(0)

	inst, err := mcnc.ByName("9symml")
	if err != nil {
		log.Fatal(err)
	}
	global, conflict, err := inst.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s — channel occupancy after global routing:\n\n", inst.Name)
	fmt.Println(fpga.RenderOccupancy(global))

	// One net at a time, in netlist order: the conventional approach.
	_, wNatural := coloring.Greedy(conflict, nil)

	// One net at a time, most-constrained first.
	order := make([]int, conflict.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return conflict.Degree(order[a]) > conflict.Degree(order[b])
	})
	_, wDegree := coloring.Greedy(conflict, order)

	_, wDSATUR := coloring.DSATUR(conflict)

	fmt.Printf("one net at a time (netlist order):   needs W=%d\n", wNatural)
	fmt.Printf("one net at a time (hardest first):   needs W=%d\n", wDegree)
	fmt.Printf("DSATUR heuristic:                    needs W=%d\n", wDSATUR)

	// The SAT flow considers all nets simultaneously — and proves the
	// minimum.
	strategy, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		log.Fatal(err)
	}
	w := inst.RoutableW
	res, err := strategy.Solve(context.Background(), conflict, w, nil, sat.Options{})
	if err != nil || res.Status != sat.Sat {
		log.Fatalf("expected routable at W=%d: %v %v", w, res.Status, err)
	}
	if _, err := fpga.AssignTracks(global, res.Colors, w); err != nil {
		log.Fatal(err)
	}
	resU, err := strategy.Solve(context.Background(), conflict, w-1, nil, sat.Options{})
	if err != nil || resU.Status != sat.Unsat {
		log.Fatalf("expected unroutable at W=%d: %v %v", w-1, resU.Status, err)
	}
	fmt.Printf("SAT flow (all nets simultaneously):  routes at W=%d and PROVES W=%d impossible\n", w, w-1)
	for _, base := range []struct {
		name string
		w    int
	}{{"netlist order", wNatural}, {"hardest first", wDegree}, {"DSATUR", wDSATUR}} {
		if base.w > w {
			fmt.Printf("  -> %s wastes %d track(s)\n", base.name, base.w-w)
		}
	}
}
