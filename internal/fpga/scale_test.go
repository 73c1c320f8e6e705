package fpga

import (
	"testing"

	"fpgasat/internal/coloring"
)

func TestGenerateScaledChromaticNumber(t *testing.T) {
	// At full utilization the minimum channel width is exactly W: the
	// interned block coloring is a proper W-coloring (upper bound) and
	// some segment carries a W-clique (lower bound). Check both on
	// several fabric shapes and widths, plus an independent exact
	// (W-1)-uncolorability proof on the smallest case.
	for _, tc := range []struct{ rows, cols, w int }{
		{2, 2, 4},
		{3, 4, 8},
		{5, 3, 12},
	} {
		p := ScaleParams{Rows: tc.rows, Cols: tc.cols, ChannelWidth: tc.w, Utilization: 1}
		g, stats, err := GenerateScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != tc.rows*tc.cols*tc.w {
			t.Fatalf("%dx%d W=%d: N=%d, want %d", tc.cols, tc.rows, tc.w, g.N(), tc.rows*tc.cols*tc.w)
		}
		if stats.Nets != g.N() || stats.Edges != g.M() || stats.GraphBytes != g.Bytes() {
			t.Fatalf("stats disagree with graph: %+v", stats)
		}
		if stats.CliqueLB != tc.w {
			t.Fatalf("%dx%d W=%d: CliqueLB=%d, want %d", tc.cols, tc.rows, tc.w, stats.CliqueLB, tc.w)
		}
		if err := coloring.Verify(g, BlockColoring(p), tc.w); err != nil {
			t.Fatalf("%dx%d W=%d: block coloring improper: %v", tc.cols, tc.rows, tc.w, err)
		}
	}
	g, _, err := GenerateScaled(ScaleParams{Rows: 2, Cols: 2, ChannelWidth: 4, Utilization: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, sat, done := coloring.KColorable(g, 3, 0); !done || sat {
		t.Fatalf("2x2 W=4 fabric 3-colorable: sat=%v done=%v", sat, done)
	}
}

func TestGenerateScaledDeterministic(t *testing.T) {
	p := ScaleParams{Rows: 4, Cols: 5, ChannelWidth: 8, Utilization: 0.75}
	g1, s1, err := GenerateScaled(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, s2, err := GenerateScaled(p)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("generation not deterministic: %+v vs %+v", s1, s2)
	}
	var e1, e2 [][2]int
	g1.ForEachEdge(func(u, v int) { e1 = append(e1, [2]int{u, v}) })
	g2.ForEachEdge(func(u, v int) { e2 = append(e2, [2]int{u, v}) })
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestGenerateScaledUtilization(t *testing.T) {
	full, fs, err := GenerateScaled(ScaleParams{Rows: 6, Cols: 6, ChannelWidth: 8, Utilization: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, hs, err := GenerateScaled(ScaleParams{Rows: 6, Cols: 6, ChannelWidth: 8, Utilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Nets != fs.Nets/2 {
		t.Fatalf("half utilization kept %d of %d nets", hs.Nets, fs.Nets)
	}
	if hs.Edges >= fs.Edges || hs.CliqueLB > fs.CliqueLB {
		t.Fatalf("half utilization not sparser: %+v vs %+v", hs, fs)
	}
	// A sparser instance must still color within W tracks.
	colors, used := coloring.DSATUR(half)
	if used > 8 {
		t.Fatalf("half-utilization instance needed %d > W tracks", used)
	}
	if err := coloring.Verify(half, colors, used); err != nil {
		t.Fatal(err)
	}
	_ = full
}

func TestGenerateScaledValidation(t *testing.T) {
	bad := []ScaleParams{
		{Rows: 0, Cols: 3, ChannelWidth: 4},
		{Rows: 3, Cols: 3, ChannelWidth: 6},  // not a multiple of 4
		{Rows: 3, Cols: 3, ChannelWidth: -4}, // negative
		{Rows: 3, Cols: 3, ChannelWidth: 4, Utilization: 1.5},
	}
	for _, p := range bad {
		if _, _, err := GenerateScaled(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestScaledFabricGrowth(t *testing.T) {
	one := ScaledFabric(1)
	if one.Rows != 12 || one.Cols != 12 || one.ChannelWidth != 8 {
		t.Fatalf("1x fabric = %+v", one)
	}
	hundred := ScaledFabric(100)
	if hundred.Rows != 120 {
		t.Fatalf("100x side = %d", hundred.Rows)
	}
	_, stats, err := GenerateScaled(hundred)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nets < 100000 {
		t.Fatalf("100x fabric has only %d nets, want >= 1e5", stats.Nets)
	}
}

func TestGenerateScaledCrosstalk(t *testing.T) {
	p := ScaleParams{Rows: 3, Cols: 3, ChannelWidth: 4, Utilization: 1, Crosstalk: 3}
	g, stats, err := GenerateScaled(p)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("crosstalk instance must be weighted")
	}
	if g.MaxEdgeWeight() != 3 {
		t.Fatalf("max edge distance %d, want 3", g.MaxEdgeWeight())
	}
	// The unweighted structure is unchanged: same nets and edges as the
	// classic instance.
	p0 := p
	p0.Crosstalk = 0
	g0, stats0, err := GenerateScaled(p0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nets != stats0.Nets || stats.Edges != stats0.Edges {
		t.Fatalf("crosstalk changed the conflict structure: %d/%d vs %d/%d",
			stats.Nets, stats.Edges, stats0.Nets, stats0.Edges)
	}
	if g0.Weighted() {
		t.Fatal("crosstalk 0 must stay unweighted")
	}
	// The strided block coloring witnesses the calibrated width.
	w := p.MinRoutableWidth()
	if want := (4-1)*3 + 1; w != want {
		t.Fatalf("MinRoutableWidth=%d, want %d", w, want)
	}
	if err := coloring.Verify(g, BlockColoring(p), w); err != nil {
		t.Fatalf("strided block coloring invalid at width %d: %v", w, err)
	}
	// Crosstalk outside the cap is rejected.
	p.Crosstalk = MaxCrosstalk + 1
	if _, _, err := GenerateScaled(p); err == nil {
		t.Fatal("over-cap crosstalk accepted")
	}
}

// TestGenerateScaledAllocsDoNotScale holds GenerateScaled at 10× to
// the allocations at 1×, with and without crosstalk: the CSR arrays are
// allocated once whatever the fabric's size, and sorting the rows, with
// or without their weights, allocates nothing.
func TestGenerateScaledAllocsDoNotScale(t *testing.T) {
	for _, xtalk := range []int{0, 2} {
		var allocs [2]float64
		for i, factor := range []int{1, 10} {
			p := ScaledFabric(factor)
			p.Crosstalk = xtalk
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, _, err := GenerateScaled(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("crosstalk %d: %.0f allocations at 1x, %.0f at 10x", xtalk, allocs[0], allocs[1])
		if allocs[1] > allocs[0]+8 {
			t.Errorf("crosstalk %d: %.0f allocations at 10x against %.0f at 1x", xtalk, allocs[1], allocs[0])
		}
	}
}
