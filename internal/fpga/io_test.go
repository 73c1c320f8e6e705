package fpga

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetlistRoundtrip(t *testing.T) {
	nl, err := Generate("rt", GenParams{
		Rows: 7, Cols: 9, NumNets: 25, MinPins: 2, MaxPins: 5, Locality: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, nl); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != nl.Name || got.Arch != nl.Arch || len(got.Nets) != len(nl.Nets) {
		t.Fatalf("header mismatch: %+v vs %+v", got, nl)
	}
	for i := range nl.Nets {
		if got.Nets[i].Name != nl.Nets[i].Name || len(got.Nets[i].Pins) != len(nl.Nets[i].Pins) {
			t.Fatalf("net %d mismatch", i)
		}
		for j := range nl.Nets[i].Pins {
			if got.Nets[i].Pins[j] != nl.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d: %v vs %v", i, j, got.Nets[i].Pins[j], nl.Nets[i].Pins[j])
			}
		}
	}
}

func TestRoutingRoundtrip(t *testing.T) {
	nl, err := Generate("rt2", GenParams{
		Rows: 6, Cols: 6, NumNets: 20, MinPins: 2, MaxPins: 4, Locality: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := RouteGlobal(nl, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRouting(&buf, gr); err != nil {
		t.Fatal(err)
	}
	got, err := ParseRouting(&buf, nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routes) != len(gr.Routes) {
		t.Fatalf("%d routes vs %d", len(got.Routes), len(gr.Routes))
	}
	for i := range gr.Routes {
		a, b := gr.Routes[i], got.Routes[i]
		if a.Net != b.Net || a.Index != b.Index || a.Src != b.Src || a.Dst != b.Dst ||
			len(a.Segs) != len(b.Segs) {
			t.Fatalf("route %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Segs {
			if a.Segs[j] != b.Segs[j] {
				t.Fatalf("route %d seg %d mismatch", i, j)
			}
		}
	}
	// Conflict graphs must agree exactly.
	g1, g2 := gr.ConflictGraph(), got.ConflictGraph()
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatal("conflict graphs differ after roundtrip")
	}
}

func TestParseNetlistErrors(t *testing.T) {
	cases := []string{
		"net a 0 0 N 1 1 S\n",                // net before header
		"netlist a x 3\n",                    // bad size
		"netlist a 3 3\nnetlist b 3 3\n",     // duplicate header
		"netlist a 3 3\nnet n 0 0\n",         // truncated pin
		"netlist a 3 3\nnet n 0 0 Q 1 1 N\n", // bad side
		"netlist a 3 3\nnet n 0 0 N\n",       // single pin (Validate)
		"netlist a 3 3\nnet n 0 0 N 9 9 S\n", // off-array pin
		"netlist a 3 3\nfrob\n",              // unknown directive
		"",                                   // missing header
		// Arrays and nets beyond the caps the instance registry also
		// enforces; the first one used to panic in the router.
		"netlist x 3037000499 3037000499\nnet a 0 0 N 1 1 S\n",
		"netlist a 257 1\nnet n 0 0 N 1 0 N\n",
		"netlist a 3 3\nnet n" + strings.Repeat(" 0 0 N", MaxPinsPerNet+1) + "\n",
		"netlist a 3 3\n" + strings.Repeat("net n 0 0 N 1 1 S\n", MaxNets+1),
	}
	for _, in := range cases {
		if _, err := ParseNetlist(strings.NewReader(in)); err == nil {
			t.Errorf("input %.60q: expected error", in)
		}
	}
}

// FuzzParseNetlist feeds arbitrary netlist and routing text through
// the parsers. Whatever they accept must validate, and a small
// accepted netlist must route without a panic.
func FuzzParseNetlist(f *testing.F) {
	nl, err := Generate("fz", GenParams{Rows: 3, Cols: 3, NumNets: 4, MinPins: 2, MaxPins: 3, Locality: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	gr, _, err := RouteGlobal(nl, RouteOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var netText, routeText bytes.Buffer
	if err := WriteNetlist(&netText, nl); err != nil {
		f.Fatal(err)
	}
	if err := WriteRouting(&routeText, gr); err != nil {
		f.Fatal(err)
	}
	f.Add(netText.String(), routeText.String())
	f.Add("netlist m 2 2\nnet a 0 0 S 1 0 S\n", "routing m\nroute 0 0 0 0 S 1 0 S H(0,0) H(1,0)\n")
	f.Add("netlist x 3037000499 3037000499\nnet a 0 0 N 1 1 S\n", "")
	f.Fuzz(func(t *testing.T, netText, routeText string) {
		nl, err := ParseNetlist(strings.NewReader(netText))
		if err != nil {
			return
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("accepted netlist fails validation: %v", err)
		}
		if a := nl.Arch; a.Rows > MaxArrayDim || a.Cols > MaxArrayDim || len(nl.Nets) > MaxNets {
			t.Fatalf("accepted netlist beyond the caps: %dx%d, %d nets", a.Cols, a.Rows, len(nl.Nets))
		}
		if gr, err := ParseRouting(strings.NewReader(routeText), nl); err == nil {
			if err := gr.Validate(); err != nil {
				t.Fatalf("accepted routing fails validation: %v", err)
			}
		}
		if nl.Arch.Rows*nl.Arch.Cols > 64 || nl.NumPins() > 64 {
			return
		}
		if _, _, err := RouteGlobal(nl, RouteOptions{}); err != nil {
			t.Fatalf("accepted netlist does not route: %v", err)
		}
	})
}

func TestParseRoutingErrors(t *testing.T) {
	nl := &Netlist{Name: "m", Arch: Arch{Rows: 2, Cols: 2}, Nets: []Net{
		{Name: "a", Pins: []Pin{{0, 0, Bottom}, {1, 0, Bottom}}},
	}}
	cases := []string{
		"route 0 0 0 0 S 1 0 S H(0,0) H(1,0)\n",            // before header
		"routing other\n",                                  // wrong netlist name
		"routing m\nroute 0 0\n",                           // truncated
		"routing m\nroute 0 0 0 0 S 1 0 S H(0,0) H(5,9)\n", // segment off array
		"routing m\nroute 0 0 0 0 S 1 0 S H(0,0) X(1,0)\n", // bad segment kind
		"routing m\nroute 0 0 0 0 S 1 0 S H(0,0) H(0,1)\n", // not adjacent / wrong end
		"routing m\n", // sink uncovered (Validate)
		// Out-of-range pins and net indices used to reach Arch.PinSeg
		// and panic; they must be rejected at the parse boundary.
		"routing m\nroute 0 0 9 9 S 1 0 S H(0,0) H(1,0)\n",  // src pin off array
		"routing m\nroute 0 0 0 0 S 7 -1 S H(0,0) H(1,0)\n", // dst pin off array
		"routing m\nroute 5 0 0 0 S 1 0 S H(0,0) H(1,0)\n",  // net index too large
		"routing m\nroute -1 0 0 0 S 1 0 S H(0,0) H(1,0)\n", // negative net index
		// A repeated route line would add a vertex and its edges to the
		// conflict graph.
		"routing m\nroute 0 0 0 0 S 1 0 S H(0,0) H(1,0)\nroute 0 0 0 0 S 1 0 S H(0,0) H(1,0)\n",
	}
	for _, in := range cases {
		if _, err := ParseRouting(strings.NewReader(in), nl); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestParseSegName(t *testing.T) {
	a := Arch{Rows: 3, Cols: 4}
	s, err := parseSegName(a, "H(2,1)")
	if err != nil || s != a.HSeg(2, 1) {
		t.Fatalf("%v %v", s, err)
	}
	v, err := parseSegName(a, "V(4,2)")
	if err != nil || v != a.VSeg(4, 2) {
		t.Fatalf("%v %v", v, err)
	}
	for _, bad := range []string{"", "H", "H(1)", "H(a,b)", "H(9,9)", "V(9,9)", "Z(1,1)"} {
		if _, err := parseSegName(a, bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRenderOccupancy(t *testing.T) {
	nl, err := Generate("r", GenParams{Rows: 3, Cols: 3, NumNets: 6, MinPins: 2, MaxPins: 2, Locality: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := RouteGlobal(nl, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderOccupancy(gr)
	if !strings.Contains(out, "[CLB]") || !strings.Contains(out, "array 3x3") {
		t.Fatalf("render output malformed:\n%s", out)
	}
	// 4 horizontal channel lines (y=3..0) and 3 CLB rows.
	if got := strings.Count(out, "[CLB]"); got != 9 {
		t.Fatalf("%d CLB cells, want 9", got)
	}
}

func TestRenderTracks(t *testing.T) {
	nl, err := Generate("r2", GenParams{Rows: 3, Cols: 3, NumNets: 4, MinPins: 2, MaxPins: 2, Locality: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := RouteGlobal(nl, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int, len(gr.Routes))
	for i := range colors {
		colors[i] = i // all distinct: trivially legal
	}
	dr, err := AssignTracks(gr, colors, len(colors))
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTracks(dr)
	if !strings.Contains(out, "track 0") || !strings.Contains(out, "n0.0") {
		t.Fatalf("track render malformed:\n%s", out)
	}
}
