// Portfolio: run the paper's three-strategy portfolio — each member a
// (SAT encoding, symmetry heuristic) pair — in parallel on an
// unroutability proof, cancelling the losers as soon as one strategy
// answers (Sect. 6 of the paper).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

func main() {
	log.SetFlags(0)

	inst, err := mcnc.ByName("alu2")
	if err != nil {
		log.Fatal(err)
	}
	_, conflict, err := inst.Build()
	if err != nil {
		log.Fatal(err)
	}
	w := inst.UnroutableW()
	fmt.Printf("instance %s at W=%d (unroutable): conflict graph %d vertices / %d edges\n",
		inst.Name, w, conflict.N(), conflict.M())

	members := portfolio.Must(portfolio.PaperPortfolio3())
	fmt.Println("portfolio members:")
	for _, m := range members {
		fmt.Printf("  - %s\n", m.Name())
	}

	// Run each strategy alone first, to show the variance a portfolio
	// exploits.
	fmt.Println("\nindividual runs:")
	for _, m := range members {
		start := time.Now()
		res, err := m.Solve(context.Background(), conflict, w, nil, sat.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %8.3fs  %v\n", m.Name(), time.Since(start).Seconds(), res.Status)
	}

	// The race with a metrics registry: per-strategy encode/solve
	// telemetry plus the winner margin (the cancellation latency the
	// losers pay).
	reg := obs.NewRegistry()
	opts := portfolio.Options{Metrics: reg}
	start := time.Now()
	winner, all, err := portfolio.Run(context.Background(), conflict, w, members, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nportfolio wall-clock: %.3fs, winner: %s (%v)\n",
		time.Since(start).Seconds(), winner.Strategy.Name(), winner.Status)
	for _, r := range all {
		state := "cancelled"
		if r.Winner {
			state = "WINNER"
		} else if r.Status != sat.Unknown {
			state = "finished"
		}
		fmt.Printf("  %-28s %8.3fs (encode %v + solve %v, %d vars, %d clauses)  %s\n",
			r.Strategy.Name(), r.Elapsed.Seconds(),
			r.EncodeTime.Round(time.Microsecond), r.SolveTime.Round(time.Millisecond),
			r.Vars, r.Clauses, state)
	}

	// The same machinery also answers satisfiable questions: at W+1 the
	// instance is routable and the winner supplies the routing.
	winner, _, err = portfolio.Run(context.Background(), conflict, w+1, members, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat W=%d the portfolio finds a routing (winner %s, %d nets colored)\n",
		w+1, winner.Strategy.Name(), len(winner.Colors))

	fmt.Println("\ncollected telemetry:")
	if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
