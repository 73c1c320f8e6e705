package fpga

import (
	"fmt"
	"math"

	"fpgasat/internal/graph"
)

// This file is the tile-templated instance generator for scaling
// studies. The explicit flow (Generate → RouteGlobal → ConflictGraph)
// materializes per-route segment lists and per-segment buckets, which
// caps it at ~10³ nets. GenerateScaled skips the netlist and router
// entirely: a tile's possible 2-pin routes are drawn from a small
// library of switch-block templates whose pairwise conflicts are
// interned ONCE, and the fabric is an R×C instantiation of that
// library. Edges stream straight into the CSR builder, so conflict
// graphs with 10⁵–10⁶ nets fit in the flat offset/neighbor arrays with
// no per-tile objects at all.
//
// The template library models a subset-switch-block tile with four
// corner turns. In tile coordinates, a tile (x,y) touches four channel
// segments: Hlow = H(x,y), Hhigh = H(x,y+1), Vleft = V(x,y), and
// Vright = V(x+1,y); Hhigh is the next tile up's Hlow, and Vright the
// next tile right's Vleft — that sharing is what stitches tiles
// together. With channel width W = 4d the library holds T = 4d
// templates per tile, d copies of each corner turn:
//
//	group A: {Vleft, Hlow}    group B: {Hlow, Vright}
//	group C: {Vright, Hhigh}  group D: {Hhigh, Vleft}
//
// Each instantiated template is its own 2-pin net, so two templates
// conflict exactly when they share a physical segment. Geometrically
// that can only happen at tile offsets (0,0), (1,0) and (0,1):
// same-tile templates meet on any of the four segments, a tile and its
// right neighbor share Vright=Vleft, a tile and its upper neighbor
// share Hhigh=Hlow. H and V segments never alias. All three conflict
// pair lists are interned up front and replayed per tile.
//
// At full utilization the instance's minimum channel width is exactly
// W: every interior segment carries 4d = W mutually conflicting
// templates (a W-clique), and the block coloring
// color = group*d + copy is proper — within a tile conflicting groups
// differ, and both cross-tile conflict lists pair {B,C}×{A,D} or
// {C,D}×{A,B}, which never agree on the group. BlockColoring exposes
// that witness; TestGenerateScaledChromaticNumber pins the argument.
type ScaleParams struct {
	// Fabric size in tiles.
	Rows, Cols int
	// ChannelWidth is W, the number of tracks per channel; it must be
	// a positive multiple of 4 (d = W/4 copies of each corner turn).
	ChannelWidth int
	// Utilization is the fraction of each tile's template library that
	// is instantiated, in (0,1]. 0 means 1.0 (full). Selection rotates
	// with the tile index so dropped templates vary across the fabric.
	Utilization float64
	// Crosstalk turns the instance into a bandwidth-coloring problem:
	// every pair of templates sharing a physical segment must sit at
	// least Crosstalk tracks apart (|track(u)-track(v)| >= Crosstalk).
	// 0 and 1 are the classic disequality instance. At full utilization
	// the calibrated minimum width becomes
	// (ChannelWidth-1)*Crosstalk + 1: the W-clique on each interior
	// segment needs a color span of (W-1)*Crosstalk, and spreading
	// BlockColoring by the Crosstalk stride witnesses sufficiency.
	Crosstalk int
}

// ScaleStats summarizes a generated instance for benchmark reports.
type ScaleStats struct {
	Rows, Cols   int
	ChannelWidth int
	Nets         int // vertices of the conflict graph
	Edges        int
	CliqueLB     int // max templates on one physical segment
	GraphBytes   int // CSR storage of the conflict graph
}

func (p ScaleParams) validate() error {
	if p.Rows < 1 || p.Cols < 1 {
		return fmt.Errorf("fpga: bad fabric %dx%d", p.Cols, p.Rows)
	}
	if p.ChannelWidth < 4 || p.ChannelWidth%4 != 0 {
		return fmt.Errorf("fpga: channel width %d is not a positive multiple of 4", p.ChannelWidth)
	}
	if p.Utilization < 0 || p.Utilization > 1 {
		return fmt.Errorf("fpga: utilization %g outside (0,1]", p.Utilization)
	}
	if p.Crosstalk < 0 || p.Crosstalk > MaxCrosstalk {
		return fmt.Errorf("fpga: crosstalk %d outside [0,%d]", p.Crosstalk, MaxCrosstalk)
	}
	return nil
}

// MaxCrosstalk caps the crosstalk spacing a scaled instance may
// request: widths grow linearly with it, so the cap bounds the encoded
// formula size like the registry caps bound generator work.
const MaxCrosstalk = 64

// templatePairs interns the conflict structure of the template library
// for one channel width: every pair list is in template-index space
// (template t = group*d + copy) and is replayed verbatim for each tile.
type templatePairs struct {
	d, t  int
	intra [][2]int // same tile
	right [][2]int // (a in tile, b in right neighbor)
	up    [][2]int // (a in tile, b in upper neighbor)
}

func internTemplatePairs(w int) *templatePairs {
	d := w / 4
	tp := &templatePairs{d: d, t: 4 * d}
	id := func(group, copy int) int { return group*d + copy }
	// Same tile: copies of one group share both segments; adjacent
	// groups (A-B on Hlow, B-C on Vright, C-D on Hhigh, D-A on Vleft)
	// share one. Opposite groups (A-C, B-D) touch disjoint segments.
	for g := 0; g < 4; g++ {
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				tp.intra = append(tp.intra, [2]int{id(g, i), id(g, j)})
			}
		}
	}
	for g := 0; g < 4; g++ {
		h := (g + 1) % 4
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				tp.intra = append(tp.intra, [2]int{id(g, i), id(h, j)})
			}
		}
	}
	// Right neighbor: this tile's Vright is the neighbor's Vleft, so
	// users of Vright here ({B,C}) meet users of Vleft there ({A,D}).
	for _, g := range []int{1, 2} {
		for _, h := range []int{0, 3} {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					tp.right = append(tp.right, [2]int{id(g, i), id(h, j)})
				}
			}
		}
	}
	// Upper neighbor: this tile's Hhigh is the neighbor's Hlow, so
	// users of Hhigh here ({C,D}) meet users of Hlow there ({A,B}).
	for _, g := range []int{2, 3} {
		for _, h := range []int{0, 1} {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					tp.up = append(tp.up, [2]int{id(g, i), id(h, j)})
				}
			}
		}
	}
	return tp
}

// templateSegs returns the two tile-relative segments of template t,
// encoded as 0=Hlow, 1=Hhigh, 2=Vleft, 3=Vright.
func templateSegs(t, d int) (int, int) {
	switch t / d {
	case 0:
		return 2, 0 // A: Vleft, Hlow
	case 1:
		return 0, 3 // B: Hlow, Vright
	case 2:
		return 3, 1 // C: Vright, Hhigh
	default:
		return 1, 2 // D: Hhigh, Vleft
	}
}

// GenerateScaled instantiates the template library across the fabric
// and returns the conflict graph of all instantiated 2-pin nets plus
// its statistics. The graph streams directly into CSR storage; nothing
// proportional to the tile count is allocated beyond it.
func GenerateScaled(p ScaleParams) (*graph.Graph, ScaleStats, error) {
	if err := p.validate(); err != nil {
		return nil, ScaleStats{}, err
	}
	util := p.Utilization
	if util == 0 {
		util = 1
	}
	tp := internTemplatePairs(p.ChannelWidth)
	t := tp.t
	keep := int(math.Round(util * float64(t)))
	if keep < 1 {
		keep = 1
	}

	// Utilization drops templates per tile with a selection that
	// rotates by tile index. The kept set depends only on tile%t, so
	// rank tables (template -> dense per-tile slot, or -1) are interned
	// per residue, like the pair lists.
	rank := make([][]int, t)
	for r := 0; r < t; r++ {
		rank[r] = make([]int, t)
		next := 0
		for tmpl := 0; tmpl < t; tmpl++ {
			if (tmpl+r)%t < keep {
				rank[r][tmpl] = next
				next++
			} else {
				rank[r][tmpl] = -1
			}
		}
	}

	tiles := p.Rows * p.Cols
	n := tiles * keep
	vertex := func(tile, tmpl int) int {
		return tile*keep + rank[tile%t][tmpl]
	}
	// Every conflict is a shared physical segment, so the spacing
	// constraint applies uniformly to all edges.
	dist := max(p.Crosstalk, 1)
	g := graph.FromEdgeStream(n, func(emit func(u, v, d int)) {
		for y := 0; y < p.Rows; y++ {
			for x := 0; x < p.Cols; x++ {
				tile := y*p.Cols + x
				kept := rank[tile%t]
				for _, pr := range tp.intra {
					if kept[pr[0]] >= 0 && kept[pr[1]] >= 0 {
						emit(vertex(tile, pr[0]), vertex(tile, pr[1]), dist)
					}
				}
				if x+1 < p.Cols {
					nb := tile + 1
					keptNb := rank[nb%t]
					for _, pr := range tp.right {
						if kept[pr[0]] >= 0 && keptNb[pr[1]] >= 0 {
							emit(vertex(tile, pr[0]), vertex(nb, pr[1]), dist)
						}
					}
				}
				if y+1 < p.Rows {
					nb := tile + p.Cols
					keptNb := rank[nb%t]
					for _, pr := range tp.up {
						if kept[pr[0]] >= 0 && keptNb[pr[1]] >= 0 {
							emit(vertex(tile, pr[0]), vertex(nb, pr[1]), dist)
						}
					}
				}
			}
		}
	})

	stats := ScaleStats{
		Rows: p.Rows, Cols: p.Cols, ChannelWidth: p.ChannelWidth,
		Nets:       n,
		Edges:      g.M(),
		CliqueLB:   maxSegmentOccupancy(p, rank, tp.d),
		GraphBytes: g.Bytes(),
	}
	return g, stats, nil
}

// maxSegmentOccupancy counts, for every physical channel segment, how
// many instantiated templates use it, and returns the maximum. All
// templates on one segment conflict pairwise, so this is a clique (and
// channel-width) lower bound for the instance.
func maxSegmentOccupancy(p ScaleParams, rank [][]int, d int) int {
	t := 4 * d
	// H(x,y): x in [0,Cols), y in [0,Rows]; V(x,y): x in [0,Cols], y in [0,Rows).
	hOcc := make([]int, p.Cols*(p.Rows+1))
	vOcc := make([]int, (p.Cols+1)*p.Rows)
	for y := 0; y < p.Rows; y++ {
		for x := 0; x < p.Cols; x++ {
			tile := y*p.Cols + x
			kept := rank[tile%t]
			for tmpl := 0; tmpl < t; tmpl++ {
				if kept[tmpl] < 0 {
					continue
				}
				s1, s2 := templateSegs(tmpl, d)
				for _, s := range [2]int{s1, s2} {
					switch s {
					case 0: // Hlow = H(x,y)
						hOcc[y*p.Cols+x]++
					case 1: // Hhigh = H(x,y+1)
						hOcc[(y+1)*p.Cols+x]++
					case 2: // Vleft = V(x,y)
						vOcc[y*(p.Cols+1)+x]++
					default: // Vright = V(x+1,y)
						vOcc[y*(p.Cols+1)+x+1]++
					}
				}
			}
		}
	}
	best := 0
	for _, o := range hOcc {
		if o > best {
			best = o
		}
	}
	for _, o := range vOcc {
		if o > best {
			best = o
		}
	}
	return best
}

// BlockColoring returns the closed-form proper coloring of a
// full-utilization scaled instance: template group*d+copy gets color
// group*d+copy, using exactly ChannelWidth colors. With Crosstalk
// spacing s >= 2 the colors are spread by the stride s (template tmpl
// gets color tmpl*s): conflicting templates have distinct template
// indices, so their colors differ by at least s, witnessing that
// MinRoutableWidth tracks suffice. It is the witness that the
// instance's minimum channel width is at most MinRoutableWidth
// (CliqueLB shows the clique needs at least that span).
func BlockColoring(p ScaleParams) []int {
	d := p.ChannelWidth / 4
	t := 4 * d
	stride := p.Crosstalk
	if stride < 1 {
		stride = 1
	}
	colors := make([]int, p.Rows*p.Cols*t)
	for tile := 0; tile < p.Rows*p.Cols; tile++ {
		for tmpl := 0; tmpl < t; tmpl++ {
			colors[tile*t+tmpl] = tmpl * stride
		}
	}
	return colors
}

// MinRoutableWidth returns the calibrated minimum channel width of a
// full-utilization scaled instance: ChannelWidth for the classic
// disequality case, (ChannelWidth-1)*Crosstalk + 1 under crosstalk
// spacing (a W-clique with pairwise distance s spans (W-1)*s+1 tracks,
// and the strided BlockColoring achieves it).
func (p ScaleParams) MinRoutableWidth() int {
	s := p.Crosstalk
	if s < 1 {
		s = 1
	}
	return (p.ChannelWidth-1)*s + 1
}

// ScaledFabric returns the canonical scale-study parameters for a given
// scale factor: a square fabric whose side grows with √factor so the
// net count grows linearly with factor, at channel width 8. Factor 1 is
// calibrated near the largest MCNC instance; factor 100 exceeds 10⁵
// nets.
func ScaledFabric(factor int) ScaleParams {
	side := int(math.Round(12 * math.Sqrt(float64(factor))))
	if side < 1 {
		side = 1
	}
	return ScaleParams{Rows: side, Cols: side, ChannelWidth: 8, Utilization: 1}
}
