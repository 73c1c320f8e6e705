package fpgasat_test

import (
	"context"
	"testing"

	"fpgasat"
	"fpgasat/internal/graph"
	"fpgasat/internal/robust"
)

// TestSessionSolveGraphIsolatesPanic: a crash inside a Session solve
// must surface as a *PanicError instead of killing the process, and
// the session must stay usable (the crashed solver is abandoned, not
// returned to the pool).
func TestSessionSolveGraphIsolatesPanic(t *testing.T) {
	robust.SetFailpoint(robust.FPSessionSolve, func(args ...any) { panic("injected session crash") })
	session := fpgasat.NewSession(fpgasat.NewMetrics())
	g := graph.Complete(4)
	strategy, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}

	st, colors, err := session.SolveGraph(context.Background(), g, 4, strategy, fpgasat.SolverOptions{})
	robust.ClearFailpoint(robust.FPSessionSolve)
	if _, ok := robust.AsPanic(err); !ok {
		t.Fatalf("session crash not isolated: st=%v err=%v", st, err)
	}
	if st != fpgasat.Unknown || colors != nil {
		t.Fatalf("crashed solve leaked a result: %v %v", st, colors)
	}

	// The session survives and answers correctly afterwards.
	st, colors, err = session.SolveGraph(context.Background(), g, 4, strategy, fpgasat.SolverOptions{})
	if err != nil || st != fpgasat.Sat {
		t.Fatalf("session unusable after isolated crash: st=%v err=%v", st, err)
	}
	if err := fpgasat.VerifyColoring(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if stats := session.PoolStats(); stats.Reuses != 0 {
		t.Fatalf("crashed solver re-entered the session pool: %+v", stats)
	}
}
