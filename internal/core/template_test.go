package core

import (
	"fmt"
	"slices"
	"testing"

	"fpgasat/internal/fpga"
)

// TestTemplateMatchesEmitVar checks the premise of encoding by
// template: a domain size's template, shifted onto any variable block,
// is what emitVar emits from an allocator starting at that block — the
// same structural clauses in the same order, the same cubes and the
// same variable count. encodeVar is the reference.
func TestTemplateMatchesEmitVar(t *testing.T) {
	var encs []Encoding
	for _, name := range append(slices.Clone(PaperEncodingNames), "order") {
		enc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	encs = append(encs,
		NewITETree("tree-linear", LinearShape),
		NewITETree("tree-balanced", BalancedShape))
	for _, enc := range encs {
		for d := 1; d <= 16; d++ {
			tm := newTemplate(enc, d)
			for _, start := range []int{1, 2, 1000} {
				a := &alloc{next: start}
				wantCubes, wantClauses := encodeVar(enc, d, a)
				key := fmt.Sprintf("%s d=%d start=%d", enc.Name(), d, start)
				if tm.vars != a.next-start {
					t.Errorf("%s: template has %d vars, emitVar allocated %d", key, tm.vars, a.next-start)
				}
				p := vertexCubes{tm, start - 1}
				var got clauseCollector
				p.emitClauses(nil, &got)
				if !slices.EqualFunc(got.clauses, wantClauses, slices.Equal[[]int]) {
					t.Errorf("%s: structural clauses\n got %v\nwant %v", key, got.clauses, wantClauses)
				}
				for c, want := range wantCubes {
					if cube := p.cube(c); !slices.Equal(cube, want) {
						t.Errorf("%s: cube %d = %v, want %v", key, c, cube, want)
					}
				}
			}
		}
	}
}

// TestEncodeIntoAllocsDoNotScale checks that an encode makes no
// per-vertex or per-clause allocations: the 10x scaled fabric, with ten
// times the vertices and edges of the 1x one, may cost only a handful
// more, streamed into a counting sink and buffered by Encode into a
// *sat.CNF alike. The buffered formula sizes its slab from the census,
// so its size does not show in the count either.
func TestEncodeIntoAllocsDoNotScale(t *testing.T) {
	var fabrics []func(Strategy) *CSP
	for _, factor := range []int{1, 10} {
		p := fpga.ScaledFabric(factor)
		g, _, err := fpga.GenerateScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, func(s Strategy) *CSP { return BuildCSP(g, p.ChannelWidth, s.Symmetry) })
	}
	encodes := []struct {
		name   string
		encode func(*CSP, Encoding) int
	}{
		{"EncodeInto", func(csp *CSP, enc Encoding) int {
			cs := &countingSink{sink: discardSink{}}
			EncodeInto(csp, enc, cs)
			return cs.n
		}},
		{"Encode", func(csp *CSP, enc Encoding) int { return Encode(csp, enc).CNF.NumClauses() }},
	}
	for _, spec := range []string{"direct/s1", "ITE-linear-2+muldirect/s1", "ITE-log/s1", "order"} {
		s, err := ParseStrategy(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range encodes {
			var allocs [2]float64
			for i, build := range fabrics {
				csp := build(s)
				allocs[i] = testing.AllocsPerRun(1, func() {
					if e.encode(csp, s.Encoding) == 0 {
						t.Fatal("empty encoding")
					}
				})
			}
			t.Logf("%s %s: %.0f allocations at 1x, %.0f at 10x", e.name, spec, allocs[0], allocs[1])
			if allocs[1] > allocs[0]+8 {
				t.Errorf("%s %s: %.0f allocations at 10x against %.0f at 1x", e.name, spec, allocs[1], allocs[0])
			}
		}
	}
}
