package fpga

import (
	"fmt"
	"math"
)

// RouteOptions configure the negotiated-congestion global router.
// The zero value selects reasonable defaults.
type RouteOptions struct {
	// Capacity is the per-segment net capacity the negotiation aims
	// for. It only shapes the global routing; whether W tracks suffice
	// is afterwards decided exactly by the SAT flow. Default 4.
	Capacity int
	// MaxIters bounds the rip-up-and-reroute iterations. Default 16.
	MaxIters int
	// PresFac is the initial present-congestion penalty factor,
	// multiplied by PresGrowth each iteration. Defaults 0.5 and 1.6.
	PresFac    float64
	PresGrowth float64
	// HistFac accumulates history cost on overused segments. Default 0.4.
	HistFac float64
}

func (o RouteOptions) withDefaults() RouteOptions {
	if o.Capacity == 0 {
		o.Capacity = 4
	}
	if o.MaxIters == 0 {
		o.MaxIters = 16
	}
	if o.PresFac == 0 {
		o.PresFac = 0.5
	}
	if o.PresGrowth == 0 {
		o.PresGrowth = 1.6
	}
	if o.HistFac == 0 {
		o.HistFac = 0.4
	}
	return o
}

// RouteGlobal produces a global routing of the netlist using
// PathFinder-style negotiated congestion: every multi-pin net is
// decomposed into source-to-sink 2-pin nets (as in Sect. 2 of the
// paper), each routed by Dijkstra over the channel-segment graph with
// congestion-dependent costs; overused segments become progressively
// more expensive across rip-up iterations until the occupancy target
// is met or iterations run out. The routing is deterministic: the
// search breaks cost ties on segment id.
//
// The second return value reports whether the occupancy target was
// met; the routing is valid (connected, pin-anchored) either way.
func RouteGlobal(nl *Netlist, opts RouteOptions) (*GlobalRouting, bool, error) {
	if err := nl.Validate(); err != nil {
		return nil, false, err
	}
	opts = opts.withDefaults()
	arch := nl.Arch
	r := newRouter(arch, opts)
	nRoutes := 0
	for _, net := range nl.Nets {
		nRoutes += len(net.Pins) - 1
	}
	// routes holds one path per (net, sink), in order. Each iteration
	// writes a subnet's new path over its previous one.
	routes := make([][]SegID, nRoutes)

	converged := false
	for iter := 0; iter < opts.MaxIters; iter++ {
		first := 0
		for _, net := range nl.Nets {
			src := arch.PinSeg(net.Pins[0])
			sinks := net.Pins[1:]
			netRoutes := routes[first : first+len(sinks)]
			first += len(sinks)
			// r.use holds this net's segment use counts while its
			// subnets are rerouted, and is all zero again afterwards.
			// A segment's cost is refreshed whenever its use count
			// moves between 0 and 1 or its occupancy changes.
			for _, path := range netRoutes {
				for _, s := range path {
					r.use[s]++
					if r.use[s] == 1 {
						r.price(s)
					}
				}
			}
			for si, sink := range sinks {
				// Rip up the previous route of this subnet.
				for _, s := range netRoutes[si] {
					r.use[s]--
					if r.use[s] == 0 {
						r.occ[s]--
						r.price(s)
					}
				}
				path := r.shortestPath(src, arch.PinSeg(sink), netRoutes[si])
				for _, s := range path {
					r.use[s]++
					if r.use[s] == 1 {
						r.occ[s]++
						r.price(s)
					}
				}
				netRoutes[si] = path
			}
			for _, path := range netRoutes {
				for _, s := range path {
					if r.use[s] != 0 {
						r.use[s] = 0
						r.price(s)
					}
				}
			}
		}
		// Check overuse and update history costs.
		over := false
		for s, occ := range r.occ {
			if occ > opts.Capacity {
				over = true
				r.hist[s] += opts.HistFac * float64(occ-opts.Capacity)
			}
		}
		if !over {
			converged = true
			break
		}
		r.presFac *= opts.PresGrowth
		for s := range r.seg {
			r.price(SegID(s))
		}
	}

	gr := &GlobalRouting{Netlist: nl, Routes: make([]TwoPinNet, 0, nRoutes)}
	for ni, net := range nl.Nets {
		for si, sink := range net.Pins[1:] {
			gr.Routes = append(gr.Routes, TwoPinNet{
				Net:   ni,
				Index: si,
				Src:   net.Pins[0],
				Dst:   sink,
				Segs:  routes[len(gr.Routes)],
			})
		}
	}
	if err := gr.Validate(); err != nil {
		return nil, false, fmt.Errorf("fpga: router produced invalid routing: %w", err)
	}
	return gr, converged, nil
}

// router is the state of one RouteGlobal call, allocated once: the
// segment adjacency in CSR form, the negotiated-congestion costs, and
// one Dijkstra search reused by every subnet of every iteration.
type router struct {
	// The neighbors of segment s are adj[adjStart[s]:adjStart[s+1]].
	adjStart []int32
	adj      []int32

	hist     []float64 // history cost per segment
	occ      []int     // distinct nets per segment
	use      []int     // per segment: routes of the net being routed through it
	capacity int
	presFac  float64

	seg  []segRecord // per segment: its cost and its search state
	gen  uint32      // the current search's stamp
	heap frontier
}

// segRecord keeps what a search reads of one segment in one place.
// cost is the price of entering the segment, kept current by price.
// prev holds only while stamp is the router's gen, that is, once the
// current search has reached the segment, so a new search resets every
// record by advancing gen.
type segRecord struct {
	cost  float64
	prev  int32
	stamp uint32
}

func newRouter(arch Arch, opts RouteOptions) *router {
	n := arch.NumSegs()
	r := &router{
		adjStart: make([]int32, n+1),
		// A segment meets at most three others at each end.
		adj:      make([]int32, 0, 6*n),
		hist:     make([]float64, n),
		occ:      make([]int, n),
		use:      make([]int, n),
		capacity: opts.Capacity,
		presFac:  opts.PresFac,
		seg:      make([]segRecord, n),
	}
	var adj []SegID
	for s := 0; s < n; s++ {
		adj = arch.appendAdjacent(adj[:0], SegID(s))
		for _, t := range adj {
			r.adj = append(r.adj, int32(t))
		}
		r.adjStart[s+1] = int32(len(r.adj))
		r.price(SegID(s))
	}
	return r
}

// price refreshes the cost of entering segment s from its inputs: the
// routed net's use of it, its occupancy and history, and the present
// congestion factor. Segments already used by the net being routed
// are nearly free: subnets of one net share tracks.
func (r *router) price(s SegID) {
	cost := 0.01
	if r.use[s] == 0 {
		cost = 1.0 + r.hist[s]
		if over := r.occ[s] + 1 - r.capacity; over > 0 {
			cost += r.presFac * float64(over)
		}
	}
	r.seg[s].cost = cost
}

// shortestPath finds a min-cost segment path from src to dst, where
// cost is charged per segment entered (including src and dst), and
// writes it over path's storage, which holds the subnet's previous
// route or nothing. The segment graph is connected, so a path always
// exists. Of the paths of least cost it returns the one a plain
// Dijkstra search returns when it pops entries in (cost, segment id)
// order and keeps the first predecessor it finds; DESIGN.md ("Global
// router and its determinism contract") says why the bound and
// stopping at the first reach of dst cannot change which one.
func (r *router) shortestPath(src, dst SegID, path []SegID) []SegID {
	// The previous route, priced now and summed in the order the
	// search sums, costs at least as much as the path to be found, so
	// no entry costing more can pop before the search reaches dst.
	bound := math.Inf(1)
	if len(path) > 0 {
		bound = 0
		for _, s := range path {
			bound += r.seg[s].cost
		}
	}
	r.gen++
	if r.gen == 0 { // wrapped: no stale stamp may match the new gen
		for i := range r.seg {
			r.seg[i].stamp = 0
		}
		r.gen = 1
	}
	gen := r.gen
	r.seg[src].stamp = gen
	r.heap = append(r.heap[:0], segDist{r.seg[src].cost, int32(src)})
	// Every way into a segment adds its one entry cost, and entries pop
	// in order, so the first neighbour to reach a segment reaches it at
	// its least cost: a reached segment is never pushed again, and its
	// predecessor is final. So the search stops once it reaches dst.
	for len(r.heap) > 0 && r.seg[dst].stamp != gen {
		cur := r.heap.pop()
		for _, nxt := range r.adj[r.adjStart[cur.seg]:r.adjStart[cur.seg+1]] {
			rec := &r.seg[nxt]
			if rec.stamp == gen {
				continue
			}
			nd := cur.dist + rec.cost
			if nd > bound {
				continue
			}
			rec.prev, rec.stamp = cur.seg, gen
			if nxt == int32(dst) {
				break
			}
			r.heap.push(segDist{nd, nxt})
		}
	}
	// Walk back from dst; a segment this search never reached has no
	// predecessor.
	path = path[:0]
	for s := dst; ; s = SegID(r.seg[s].prev) {
		path = append(path, s)
		if s == src || r.seg[s].stamp != gen {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// segDist is a search frontier entry: a segment and the path cost it
// was reached at.
type segDist struct {
	dist float64
	seg  int32
}

// less orders entries by cost, then segment id. Within one search no
// two entries are equal, since a segment is pushed at most once, so
// every heap pops them in the same order.
func (e segDist) less(f segDist) bool {
	if e.dist != f.dist {
		return e.dist < f.dist
	}
	return e.seg < f.seg
}

// frontier is a binary min-heap of segDist. push and pop move a hole
// through the heap and write the sifted entry once, where it stops.
type frontier []segDist

func (h *frontier) push(e segDist) {
	q := append(*h, e)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
	*h = q
}

func (h *frontier) pop() segDist {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].less(q[j]) {
			j = j2
		}
		if !q[j].less(last) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = last
	*h = q[:n]
	return top
}
