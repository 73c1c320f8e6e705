package fpga

import "fmt"

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
			for _, path := range netRoutes {
				for _, s := range path {
					r.use[s]++
				}
			}
			for si, sink := range sinks {
				// Rip up the previous route of this subnet.
				for _, s := range netRoutes[si] {
					r.use[s]--
					if r.use[s] == 0 {
						r.occ[s]--
					}
				}
				path := r.shortestPath(src, arch.PinSeg(sink), netRoutes[si])
				for _, s := range path {
					if r.use[s] == 0 {
						r.occ[s]++
					}
					r.use[s]++
				}
				netRoutes[si] = path
			}
			for _, path := range netRoutes {
				for _, s := range path {
					r.use[s] = 0
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
	adj      []SegID

	hist     []float64 // history cost per segment
	occ      []int     // distinct nets per segment
	use      []int     // per segment: routes of the net being routed through it
	capacity int
	presFac  float64

	// dist and prev hold for segment s only while mark[s] is gen
	// (reached by the current search) or gen+1 (settled by it), so a
	// new search resets them by advancing gen.
	dist []float64
	prev []SegID
	mark []uint32
	gen  uint32
	heap frontier
}

func newRouter(arch Arch, opts RouteOptions) *router {
	n := arch.NumSegs()
	r := &router{
		adjStart: make([]int32, n+1),
		// A segment meets at most three others at each end.
		adj:      make([]SegID, 0, 6*n),
		hist:     make([]float64, n),
		occ:      make([]int, n),
		use:      make([]int, n),
		capacity: opts.Capacity,
		presFac:  opts.PresFac,
		dist:     make([]float64, n),
		prev:     make([]SegID, n),
		mark:     make([]uint32, n),
	}
	for s := 0; s < n; s++ {
		r.adj = arch.appendAdjacent(r.adj, SegID(s))
		r.adjStart[s+1] = int32(len(r.adj))
	}
	return r
}

// segCost is the price of entering segment s. Segments already used
// by the net being routed are nearly free: subnets of one net share
// tracks.
func (r *router) segCost(s SegID) float64 {
	if r.use[s] > 0 {
		return 0.01
	}
	cost := 1.0 + r.hist[s]
	if over := r.occ[s] + 1 - r.capacity; over > 0 {
		cost += r.presFac * float64(over)
	}
	return cost
}

// shortestPath finds a min-cost segment path from src to dst, where
// cost is charged per segment entered (including src and dst), and
// writes it over path's storage. The segment graph is connected, so a
// path always exists.
func (r *router) shortestPath(src, dst SegID, path []SegID) []SegID {
	// A segment not reached yet counts as reached at this cost, so a
	// path costing more is never recorded.
	const unreached = 1e18
	r.gen += 2
	if r.gen < 2 { // wrapped: no stale mark may match the new gen
		clear(r.mark)
		r.gen = 2
	}
	reached, settled := r.gen, r.gen+1
	r.dist[src] = r.segCost(src)
	r.mark[src] = reached
	r.heap = append(r.heap[:0], segDist{r.dist[src], src})
	for len(r.heap) > 0 {
		cur := r.heap.pop()
		if r.mark[cur.seg] == settled {
			continue
		}
		r.mark[cur.seg] = settled
		if cur.seg == dst {
			break
		}
		for _, nxt := range r.adj[r.adjStart[cur.seg]:r.adjStart[cur.seg+1]] {
			best := unreached
			switch r.mark[nxt] {
			case settled:
				continue
			case reached:
				best = r.dist[nxt]
			}
			nd := cur.dist + r.segCost(nxt)
			if nd < best {
				r.dist[nxt] = nd
				r.prev[nxt] = cur.seg
				r.mark[nxt] = reached
				r.heap.push(segDist{nd, nxt})
			}
		}
	}
	// Walk back from dst; a segment this search never reached has no
	// predecessor.
	path = path[:0]
	for s := dst; ; s = r.prev[s] {
		path = append(path, s)
		if s == src || r.mark[s] < reached {
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
	seg  SegID
}

// less orders entries by cost, then segment id. Within one search no
// two entries are equal, since a segment is pushed again only at a
// strictly lower cost, so every heap pops them in the same order.
func (e segDist) less(f segDist) bool {
	if e.dist != f.dist {
		return e.dist < f.dist
	}
	return e.seg < f.seg
}

// frontier is a binary min-heap of segDist; push and pop sift exactly
// as container/heap does.
type frontier []segDist

func (h *frontier) push(e segDist) {
	q := append(*h, e)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q[j].less(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *frontier) pop() segDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].less(q[j]) {
			j = j2
		}
		if !q[j].less(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
