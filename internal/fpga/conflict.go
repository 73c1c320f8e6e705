package fpga

import (
	"fmt"

	"fpgasat/internal/graph"
)

// ConflictGraph builds the coloring CSP graph of Sect. 2: one vertex
// per 2-pin net, and an edge between two vertices whenever their
// routes belong to different multi-pin nets and pass through a common
// connection block (channel segment). A detailed routing with W tracks
// exists if and only if this graph is W-colorable, because subset
// switch blocks preserve the track along each 2-pin route. It is
// ConflictGraphXtalk(1).
func (gr *GlobalRouting) ConflictGraph() *graph.Graph {
	return gr.ConflictGraphXtalk(1)
}

// ConflictGraphXtalk is ConflictGraph with crosstalk-aware spacing
// constraints: pairs of routes that run alongside each other through
// two or more common connection blocks (a long parallel coupling run)
// get a distance-xtalk edge — their tracks must differ by at least
// xtalk — while single-crossing pairs keep the plain exclusivity edge
// (distance 1). xtalk <= 1 degenerates to ConflictGraph. The result is
// the bandwidth-coloring CSP graph of the spacing-aware track
// assignment problem.
func (gr *GlobalRouting) ConflictGraphXtalk(xtalk int) *graph.Graph {
	n := len(gr.Routes)
	nSegs := gr.Netlist.Arch.NumSegs()
	// Each route's distinct segments in CSR form: route ri passes
	// segs[routeStart[ri]:routeStart[ri+1]], each once, and segment s
	// carries segStart[s+1]-segStart[s] routes.
	routeStart := make([]int32, n+1)
	segs := make([]SegID, 0, gr.TotalWirelength())
	segStart := make([]int32, nSegs+1)
	lastRoute := make([]int32, nSegs) // 1 + the last route listing segment s
	for ri, r := range gr.Routes {
		for _, s := range r.Segs {
			if lastRoute[s] != int32(ri+1) {
				lastRoute[s] = int32(ri + 1)
				segs = append(segs, s)
				segStart[s+1]++
			}
		}
		routeStart[ri+1] = int32(len(segs))
	}
	// Bucket route indices by segment: the routes through segment s,
	// ascending, are onSeg[segStart[s]:segStart[s+1]].
	for s := 0; s < nSegs; s++ {
		segStart[s+1] += segStart[s]
	}
	onSeg := make([]int32, len(segs))
	fill := append([]int32(nil), segStart[:nSegs]...)
	for ri := 0; ri < n; ri++ {
		for _, s := range segs[routeStart[ri]:routeStart[ri+1]] {
			onSeg[fill[s]] = int32(ri)
			fill[s]++
		}
	}

	// Route u gets an edge to every later route v of another net that
	// shares a segment with it. shared[v] counts those segments while u
	// is scanned, and is zero again once u's edges are emitted; two or
	// more make the pair coupled.
	coupled := max(xtalk, 1)
	shared := make([]int32, n)
	var partners []int32
	return graph.FromEdgeStream(n, func(emit func(u, v, d int)) {
		for u := 0; u < n; u++ {
			net := gr.Routes[u].Net
			partners = partners[:0]
			for _, s := range segs[routeStart[u]:routeStart[u+1]] {
				for _, v := range onSeg[segStart[s]:segStart[s+1]] {
					if int(v) <= u || gr.Routes[v].Net == net {
						continue
					}
					if shared[v] == 0 {
						partners = append(partners, v)
					}
					shared[v]++
				}
			}
			for _, v := range partners {
				d := 1
				if shared[v] >= 2 {
					d = coupled
				}
				emit(u, int(v), d)
				shared[v] = 0
			}
		}
	})
}

// DetailedRouting is a global routing plus a track assignment: 2-pin
// net i runs on track Tracks[i] (the same track in every connection
// block it crosses, thanks to subset switch blocks).
type DetailedRouting struct {
	Global *GlobalRouting
	W      int
	Tracks []int
}

// AssignTracks turns a coloring of the conflict graph into a detailed
// routing with W tracks.
func AssignTracks(gr *GlobalRouting, colors []int, w int) (*DetailedRouting, error) {
	if len(colors) != len(gr.Routes) {
		return nil, fmt.Errorf("fpga: %d colors for %d routes", len(colors), len(gr.Routes))
	}
	dr := &DetailedRouting{Global: gr, W: w, Tracks: append([]int(nil), colors...)}
	if err := dr.Validate(); err != nil {
		return nil, err
	}
	return dr, nil
}

// Validate checks the legality of the detailed routing: every track
// index is within the channel width, and no connection block carries
// two different multi-pin nets on the same track.
func (dr *DetailedRouting) Validate() error {
	gr := dr.Global
	for i, t := range dr.Tracks {
		if t < 0 || t >= dr.W {
			return fmt.Errorf("fpga: route %d track %d outside [0,%d)", i, t, dr.W)
		}
	}
	// seg -> track -> owning multi-pin net
	type key struct {
		seg   SegID
		track int
	}
	owner := map[key]int{}
	for ri, r := range gr.Routes {
		for _, s := range r.Segs {
			k := key{s, dr.Tracks[ri]}
			if own, ok := owner[k]; ok && own != r.Net {
				return fmt.Errorf("fpga: nets %s and %s both use track %d in connection block %s",
					gr.Netlist.Nets[own].Name, gr.Netlist.Nets[r.Net].Name,
					dr.Tracks[ri], gr.Netlist.Arch.SegName(s))
			}
			owner[k] = r.Net
		}
	}
	return nil
}
