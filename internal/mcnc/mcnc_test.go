package mcnc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

func TestRegistryLookups(t *testing.T) {
	if len(Instances()) < 10 {
		t.Fatalf("only %d instances", len(Instances()))
	}
	if len(Table2Instances()) != 8 {
		t.Fatalf("Table 2 needs 8 instances, got %d", len(Table2Instances()))
	}
	want := []string{"alu2", "too_large", "alu4", "C880", "apex7", "C1355", "vda", "k2"}
	for i, in := range Table2Instances() {
		if in.Name != want[i] {
			t.Fatalf("Table 2 order: got %s at %d, want %s", in.Name, i, want[i])
		}
	}
	if _, err := ByName("vda"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if len(Names()) != len(Instances()) {
		t.Fatal("Names/Instances mismatch")
	}
}

func TestInstancesMutationSafe(t *testing.T) {
	a := Instances()
	a[0].Name = "clobbered"
	if Instances()[0].Name == "clobbered" {
		t.Fatal("Instances exposes internal state")
	}
}

func TestBuildDeterministic(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g1, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("instance not deterministic: %d/%d vs %d/%d", g1.N(), g1.M(), g2.N(), g2.M())
	}
}

// TestRegistryBuildsPinned holds every registry instance to the exact
// routing and conflict graph its calibrated RoutableW was measured on.
// The digest covers each route (net, subnet index, end pins, segments)
// and the graph (size, every CSR row with weights, and the label of
// each vertex's route).
func TestRegistryBuildsPinned(t *testing.T) {
	want := map[string]string{
		"alu2":      "bcb1634c2a7fa6f3fd7374ae95e8093ab8ccf2646b38122227c0f06d5d38f6c4",
		"too_large": "0c1df94e0c1f626bed1b7a1f03ce4462e228d06e677e360a378661e7e4a0c618",
		"alu4":      "4085a2b18f03bce9f704ae58b84637b568f3a4150bc3d29e45d544cf0d6267ef",
		"C880":      "b1789d05fe132f39c60e5dadc7bc91968d145b3d4ac30138ef334c5155f9ce6d",
		"apex7":     "38866c7b39dcc56526a67f63a4b9bc2e523b4c3c61c41a46ee052808070f58bb",
		"C1355":     "0a0127da5bb33c96e56a328d38285781bfe071a47f9a538d652223edac89b113",
		"vda":       "9483c512d4567c6248ac13bcfcc86b5c54936e631de94357f26f0270ef7ee82a",
		"k2":        "fad8ba797fa1961a8beb45213f6fad242d19de4831a0e67543d44dd4912db984",
		"tseng":     "1a12a86927d8a6d536da956dae7c30d196d4766be134c6628ce6f29f64936a3f",
		"term1":     "11ac14d084e12a72d6ab9c2d1cf59e7221b5d4f8671275827189abb3402594a9",
		"9symml":    "2798e0cab658146d03083c30b69b7a9f94c1628468822063d6ec5aa74184bf47",
		"tseng.x2":  "f7c43ac02e172f8327dfc17abe83e10b218da9567bc07b99c83eff96e5710bdb",
		"term1.x2":  "51cee1b71f2f318f90d77be5bc34f1e503d09130db4ad2e7493fc7c8c0946263",
		"9symml.x2": "a4bb32832a28ab4f1adaf200fd30fc660a42931a264d27d5c3346d6460af3c23",
		"term1.x3":  "f33256201658c5795b99224ad2f14086b89b82984be646afa9e03dc7d1ffd3ec",
		"alu2.x2":   "6d3149b079ea4f7e14d4f604ad6d60e31257336d659e7df4fb0c41e57d4c2875",
	}
	for _, in := range Instances() {
		gr, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range gr.Routes {
			fmt.Fprintf(h, "r %d %d %v %v %v\n", r.Net, r.Index, r.Src, r.Dst, r.Segs)
		}
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
		if got := hex.EncodeToString(h.Sum(nil)); got != want[in.Name] {
			t.Errorf("%s: build digest = %s, want %s", in.Name, got, want[in.Name])
		}
	}
}

// TestRouteGlobalAllocsDoNotGrow checks that the router allocates its
// search state once per call, not once per search: sixteen rip-up
// iterations may cost at most a quarter more allocations than one.
func TestRouteGlobalAllocsDoNotGrow(t *testing.T) {
	for _, name := range []string{"alu2", "k2"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := fpga.Generate(in.Name, in.Gen)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(iters int) float64 {
			opts := in.Route
			opts.MaxIters = iters
			return testing.AllocsPerRun(2, func() {
				if _, _, err := fpga.RouteGlobal(nl, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, sixteen := allocs(1), allocs(16)
		t.Logf("%s: %.0f allocations over 16 iterations, %.0f over 1 (%.2fx)", name, sixteen, one, sixteen/one)
		if sixteen > 1.25*one {
			t.Errorf("%s: allocations grew %.2fx from 1 to 16 iterations, limit 1.25x", name, sixteen/one)
		}
	}
}

func TestBuildValidRouting(t *testing.T) {
	for _, name := range []string{"tseng", "term1", "9symml"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gr, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := gr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: trivial conflict graph", name)
		}
		// The congestion lower bound must not contradict the calibrated
		// width.
		if gr.MaxCongestion() > in.RoutableW {
			t.Fatalf("%s: congestion %d exceeds calibrated W %d", name, gr.MaxCongestion(), in.RoutableW)
		}
	}
}

// raceWidth decides satisfiability at width w with a small portfolio.
func raceWidth(t *testing.T, in Instance, w int, timeout time.Duration) sat.Status {
	t.Helper()
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	winner, _, err := portfolio.Run(ctx, g, w, portfolio.Must(portfolio.PaperPortfolio3()), portfolio.Options{})
	if err != nil {
		t.Fatalf("%s W=%d: %v", in.Name, w, err)
	}
	return winner.Status
}

// TestCalibrationEasyInstances proves the calibration claim (routable
// at W, unroutable at W-1) for the small instances on every run.
func TestCalibrationEasyInstances(t *testing.T) {
	for _, name := range []string{"tseng", "term1", "9symml"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if st := raceWidth(t, in, in.RoutableW, time.Minute); st != sat.Sat {
			t.Errorf("%s at W=%d: got %v, want Sat", name, in.RoutableW, st)
		}
		if st := raceWidth(t, in, in.UnroutableW(), time.Minute); st != sat.Unsat {
			t.Errorf("%s at W=%d: got %v, want Unsat", name, in.UnroutableW(), st)
		}
	}
}

// TestCalibrationHardInstances re-proves the calibration for the Table
// 2 instances. Skipped with -short: the unroutability proofs take
// seconds each by design.
func TestCalibrationHardInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("hard calibration skipped in short mode")
	}
	for _, in := range Table2Instances() {
		if st := raceWidth(t, in, in.RoutableW, 5*time.Minute); st != sat.Sat {
			t.Errorf("%s at W=%d: got %v, want Sat", in.Name, in.RoutableW, st)
		}
		if st := raceWidth(t, in, in.UnroutableW(), 5*time.Minute); st != sat.Unsat {
			t.Errorf("%s at W=%d: got %v, want Unsat", in.Name, in.UnroutableW(), st)
		}
	}
}

// TestDecodedRoutingVerifies runs the full flow on one easy instance:
// encode at W, solve, decode, verify the coloring and track
// assignment.
func TestDecodedRoutingVerifies(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), g, in.RoutableW, nil, sat.Options{})
	if err != nil || res.Status != sat.Sat {
		t.Fatalf("%v %v", res.Status, err)
	}
	if err := coloring.Verify(g, res.Colors, in.RoutableW); err != nil {
		t.Fatal(err)
	}
}

// TestUnroutabilityCertificate produces and verifies a DRAT
// certificate for a real benchmark's unroutable configuration.
func TestUnroutabilityCertificate(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParseStrategy("ITE-log/s1")
	if err != nil {
		t.Fatal(err)
	}
	enc := s.EncodeGraph(g, in.UnroutableW())
	var proof bytes.Buffer
	res := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{ProofWriter: &proof})
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if err := sat.CheckDRAT(enc.CNF, &proof); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}
