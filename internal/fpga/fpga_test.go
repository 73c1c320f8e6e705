package fpga

import (
	"testing"

	"fpgasat/internal/coloring"
)

func TestSegIDRoundtrip(t *testing.T) {
	a := Arch{Rows: 3, Cols: 4}
	if a.NumSegs() != (3+1)*4+(4+1)*3 {
		t.Fatalf("NumSegs = %d", a.NumSegs())
	}
	seen := map[SegID]bool{}
	for y := 0; y <= a.Rows; y++ {
		for x := 0; x < a.Cols; x++ {
			s := a.HSeg(x, y)
			gx, gy, h := a.SegCoords(s)
			if !h || gx != x || gy != y {
				t.Fatalf("HSeg(%d,%d) roundtrip gave (%d,%d,%v)", x, y, gx, gy, h)
			}
			seen[s] = true
		}
	}
	for x := 0; x <= a.Cols; x++ {
		for y := 0; y < a.Rows; y++ {
			s := a.VSeg(x, y)
			gx, gy, h := a.SegCoords(s)
			if h || gx != x || gy != y {
				t.Fatalf("VSeg(%d,%d) roundtrip gave (%d,%d,%v)", x, y, gx, gy, h)
			}
			seen[s] = true
		}
	}
	if len(seen) != a.NumSegs() {
		t.Fatalf("segment ids collide: %d distinct of %d", len(seen), a.NumSegs())
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	a := Arch{Rows: 3, Cols: 3}
	for s := 0; s < a.NumSegs(); s++ {
		for _, u := range a.Adjacent(SegID(s)) {
			back := false
			for _, v := range a.Adjacent(u) {
				if v == SegID(s) {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("adjacency not symmetric: %s -> %s", a.SegName(SegID(s)), a.SegName(u))
			}
		}
	}
}

func TestAdjacencyCorner(t *testing.T) {
	a := Arch{Rows: 2, Cols: 2}
	// H(0,0) has switch blocks at (0,0) and (1,0): neighbors are
	// V(0,0), then H(1,0) and V(1,0).
	adj := a.Adjacent(a.HSeg(0, 0))
	want := map[SegID]bool{a.VSeg(0, 0): true, a.HSeg(1, 0): true, a.VSeg(1, 0): true}
	if len(adj) != len(want) {
		t.Fatalf("corner adjacency = %v", adj)
	}
	for _, s := range adj {
		if !want[s] {
			t.Fatalf("unexpected neighbor %s", a.SegName(s))
		}
	}
}

func TestPinSeg(t *testing.T) {
	a := Arch{Rows: 3, Cols: 3}
	cases := []struct {
		pin  Pin
		want SegID
	}{
		{Pin{1, 1, Bottom}, a.HSeg(1, 1)},
		{Pin{1, 1, Top}, a.HSeg(1, 2)},
		{Pin{1, 1, Left}, a.VSeg(1, 1)},
		{Pin{1, 1, Right}, a.VSeg(2, 1)},
	}
	for _, c := range cases {
		if got := a.PinSeg(c.pin); got != c.want {
			t.Errorf("PinSeg(%v) = %s, want %s", c.pin, a.SegName(got), a.SegName(c.want))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Rows: 6, Cols: 6, NumNets: 20, MinPins: 2, MaxPins: 4, Locality: 3, Seed: 11}
	a, err := Generate("x", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("x", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nets) != 20 || len(b.Nets) != 20 {
		t.Fatal("wrong net count")
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatal("generation not deterministic")
		}
		for j := range a.Nets[i].Pins {
			if a.Nets[i].Pins[j] != b.Nets[i].Pins[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestGenerateLocality(t *testing.T) {
	p := GenParams{Rows: 12, Cols: 12, NumNets: 40, MinPins: 2, MaxPins: 5, Locality: 2, Seed: 3}
	nl, err := Generate("loc", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nl.Nets {
		src := n.Pins[0]
		for _, s := range n.Pins[1:] {
			dx, dy := s.X-src.X, s.Y-src.Y
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dx > 2 || dy > 2 {
				t.Fatalf("sink %v too far from source %v", s, src)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := []GenParams{
		{Rows: 0, Cols: 3, NumNets: 1, MinPins: 2, MaxPins: 2},
		{Rows: 3, Cols: 3, NumNets: 1, MinPins: 1, MaxPins: 2},
		{Rows: 3, Cols: 3, NumNets: 1, MinPins: 3, MaxPins: 2},
		{Rows: 3, Cols: 3, NumNets: -1, MinPins: 2, MaxPins: 2},
	}
	for i, p := range bad {
		if _, err := Generate("bad", p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func genRouted(t *testing.T, seed int64, nets int) *GlobalRouting {
	t.Helper()
	nl, err := Generate("t", GenParams{
		Rows: 8, Cols: 8, NumNets: nets, MinPins: 2, MaxPins: 4, Locality: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := RouteGlobal(nl, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestRouteGlobalValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		gr := genRouted(t, seed, 40)
		if err := gr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// One route per sink.
		sinks := 0
		for _, n := range gr.Netlist.Nets {
			sinks += len(n.Pins) - 1
		}
		if len(gr.Routes) != sinks {
			t.Fatalf("%d routes for %d sinks", len(gr.Routes), sinks)
		}
	}
}

func TestRouteGlobalConvergesWhenEasy(t *testing.T) {
	nl, err := Generate("easy", GenParams{
		Rows: 10, Cols: 10, NumNets: 10, MinPins: 2, MaxPins: 2, Locality: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, converged, err := RouteGlobal(nl, RouteOptions{Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("router failed to meet a loose occupancy target")
	}
	if gr.MaxCongestion() > 6 {
		t.Fatalf("converged but congestion %d > 6", gr.MaxCongestion())
	}
}

func TestOccupancyCountsDistinctNets(t *testing.T) {
	// A net with two subnets over the same segment counts once.
	arch := Arch{Rows: 2, Cols: 2}
	nl := &Netlist{Name: "m", Arch: arch, Nets: []Net{{
		Name: "a",
		Pins: []Pin{{0, 0, Bottom}, {1, 0, Bottom}, {1, 0, Bottom}},
	}}}
	gr := &GlobalRouting{Netlist: nl, Routes: []TwoPinNet{
		{Net: 0, Index: 0, Src: nl.Nets[0].Pins[0], Dst: nl.Nets[0].Pins[1],
			Segs: []SegID{arch.HSeg(0, 0), arch.HSeg(1, 0)}},
		{Net: 0, Index: 1, Src: nl.Nets[0].Pins[0], Dst: nl.Nets[0].Pins[2],
			Segs: []SegID{arch.HSeg(0, 0), arch.HSeg(1, 0)}},
	}}
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := gr.MaxCongestion(); got != 1 {
		t.Fatalf("MaxCongestion = %d, want 1 (same net)", got)
	}
}

func TestConflictGraphProperties(t *testing.T) {
	gr := genRouted(t, 2, 50)
	g := gr.ConflictGraph()
	if g.N() != len(gr.Routes) {
		t.Fatalf("N = %d, want %d", g.N(), len(gr.Routes))
	}
	// No edges between subnets of the same net.
	g.ForEachEdge(func(u, v int) {
		if gr.Routes[u].Net == gr.Routes[v].Net {
			t.Fatalf("edge between subnets of net %d", gr.Routes[u].Net)
		}
	})
	// Nets sharing a segment must form a clique: the clique lower
	// bound is at least the max congestion.
	cl := coloring.GreedyClique(g)
	if len(cl) < gr.MaxCongestion() {
		t.Fatalf("clique %d < max congestion %d", len(cl), gr.MaxCongestion())
	}
}

func TestEndToEndDetailedRouting(t *testing.T) {
	gr := genRouted(t, 3, 40)
	g := gr.ConflictGraph()
	colors, w := coloring.DSATUR(g)
	dr, err := AssignTracks(gr, colors, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Validate(); err != nil {
		t.Fatal(err)
	}
	if w < gr.MaxCongestion() {
		t.Fatalf("W=%d below congestion bound %d", w, gr.MaxCongestion())
	}
}

func TestAssignTracksRejectsConflicts(t *testing.T) {
	gr := genRouted(t, 4, 40)
	g := gr.ConflictGraph()
	if g.M() == 0 {
		t.Skip("no conflicts in this instance")
	}
	// All routes on track 0: invalid unless the graph has no edges.
	colors := make([]int, len(gr.Routes))
	if _, err := AssignTracks(gr, colors, 1); err == nil {
		t.Fatal("conflicting track assignment accepted")
	}
	// Out-of-range track.
	first := -1
	g.ForEachEdge(func(u, v int) {
		if first < 0 {
			first = u
		}
	})
	colors2, w := coloring.DSATUR(g)
	colors2[first] = w + 3
	if _, err := AssignTracks(gr, colors2, w); err == nil {
		t.Fatal("out-of-range track accepted")
	}
}

func TestValidateCatchesBrokenRoutes(t *testing.T) {
	arch := Arch{Rows: 2, Cols: 2}
	nl := &Netlist{Name: "m", Arch: arch, Nets: []Net{{
		Name: "a", Pins: []Pin{{0, 0, Bottom}, {1, 1, Top}},
	}}}
	// Disconnected hop.
	gr := &GlobalRouting{Netlist: nl, Routes: []TwoPinNet{{
		Net: 0, Src: nl.Nets[0].Pins[0], Dst: nl.Nets[0].Pins[1],
		Segs: []SegID{arch.HSeg(0, 0), arch.HSeg(1, 2)},
	}}}
	if err := gr.Validate(); err == nil {
		t.Fatal("disconnected route accepted")
	}
	// Missing sink coverage.
	gr2 := &GlobalRouting{Netlist: nl}
	if err := gr2.Validate(); err == nil {
		t.Fatal("uncovered sink accepted")
	}

	// Routes that are not the netlist's 2-pin nets, each added to an
	// otherwise valid routing.
	nl2 := &Netlist{Name: "m2", Arch: arch, Nets: []Net{
		{Name: "a", Pins: []Pin{{0, 0, Bottom}, {1, 0, Bottom}}},
		{Name: "b", Pins: []Pin{{0, 1, Top}, {1, 1, Top}}},
	}}
	a0 := TwoPinNet{Net: 0, Index: 0, Src: nl2.Nets[0].Pins[0], Dst: nl2.Nets[0].Pins[1],
		Segs: []SegID{arch.HSeg(0, 0), arch.HSeg(1, 0)}}
	b0 := TwoPinNet{Net: 1, Index: 0, Src: nl2.Nets[1].Pins[0], Dst: nl2.Nets[1].Pins[1],
		Segs: []SegID{arch.HSeg(0, 2), arch.HSeg(1, 2)}}
	if err := (&GlobalRouting{Netlist: nl2, Routes: []TwoPinNet{a0, b0}}).Validate(); err != nil {
		t.Fatal(err)
	}
	foreign := b0
	foreign.Net = 0 // b's route filed under net a
	outOfRange := a0
	outOfRange.Index = 1 // net a has one sink
	for name, extra := range map[string]TwoPinNet{
		"duplicate route": a0, "foreign route": foreign, "subnet index out of range": outOfRange,
	} {
		gr := &GlobalRouting{Netlist: nl2, Routes: []TwoPinNet{a0, b0, extra}}
		if err := gr.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAdjacentMatchesAdjacency(t *testing.T) {
	for _, a := range []Arch{{Rows: 1, Cols: 1}, {Rows: 2, Cols: 3}, {Rows: 4, Cols: 4}} {
		for s := SegID(0); int(s) < a.NumSegs(); s++ {
			want := map[SegID]bool{}
			for _, u := range a.Adjacent(s) {
				want[u] = true
			}
			for u := SegID(0); int(u) < a.NumSegs(); u++ {
				if a.adjacent(s, u) != want[u] {
					t.Fatalf("%dx%d: adjacent(%s, %s) = %v, Adjacent says %v",
						a.Cols, a.Rows, a.SegName(s), a.SegName(u), a.adjacent(s, u), want[u])
				}
			}
		}
	}
}

func TestNetlistValidate(t *testing.T) {
	arch := Arch{Rows: 2, Cols: 2}
	bad := &Netlist{Arch: arch, Nets: []Net{{Name: "a", Pins: []Pin{{0, 0, Bottom}}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("single-pin net accepted")
	}
	bad2 := &Netlist{Arch: arch, Nets: []Net{{Name: "a", Pins: []Pin{{0, 0, Bottom}, {5, 0, Top}}}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("off-array pin accepted")
	}
}

func TestSideAndSegNames(t *testing.T) {
	a := Arch{Rows: 2, Cols: 2}
	if a.SegName(a.HSeg(1, 0)) != "H(1,0)" || a.SegName(a.VSeg(0, 1)) != "V(0,1)" {
		t.Fatal("SegName format changed")
	}
	if Bottom.String() != "S" || Top.String() != "N" || Left.String() != "W" || Right.String() != "E" {
		t.Fatal("Side names changed")
	}
	p := Pin{1, 0, Top}
	if p.String() != "(1,0).N" {
		t.Fatalf("Pin.String = %q", p.String())
	}
}
