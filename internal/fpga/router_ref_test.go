package fpga

import (
	"slices"
	"testing"
)

// refRouteGlobal is the reference the router is held to: the
// negotiation loop of RouteGlobal over a plain Dijkstra search that
// prices every segment when it relaxes it (segCost), marks settled
// segments with a two-value stamp, and keeps its frontier in a binary
// heap that swaps as it sifts. It returns one path per (net, sink), in
// order, and whether the occupancy target was met.
func refRouteGlobal(nl *Netlist, opts RouteOptions) ([][]SegID, bool) {
	opts = opts.withDefaults()
	arch := nl.Arch
	r := newRefRouter(arch, opts)
	nRoutes := 0
	for _, net := range nl.Nets {
		nRoutes += len(net.Pins) - 1
	}
	routes := make([][]SegID, nRoutes)
	converged := false
	for iter := 0; iter < opts.MaxIters; iter++ {
		first := 0
		for _, net := range nl.Nets {
			src := arch.PinSeg(net.Pins[0])
			sinks := net.Pins[1:]
			netRoutes := routes[first : first+len(sinks)]
			first += len(sinks)
			for _, path := range netRoutes {
				for _, s := range path {
					r.use[s]++
				}
			}
			for si, sink := range sinks {
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
	return routes, converged
}

type refRouter struct {
	adjStart []int32
	adj      []SegID

	hist     []float64
	occ      []int
	use      []int
	capacity int
	presFac  float64

	// dist and prev hold for segment s only while mark[s] is gen
	// (reached by the current search) or gen+1 (settled by it).
	dist []float64
	prev []SegID
	mark []uint32
	gen  uint32
	heap refFrontier
}

func newRefRouter(arch Arch, opts RouteOptions) *refRouter {
	n := arch.NumSegs()
	r := &refRouter{
		adjStart: make([]int32, n+1),
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

// segCost is the price of entering segment s.
func (r *refRouter) segCost(s SegID) float64 {
	if r.use[s] > 0 {
		return 0.01
	}
	cost := 1.0 + r.hist[s]
	if over := r.occ[s] + 1 - r.capacity; over > 0 {
		cost += r.presFac * float64(over)
	}
	return cost
}

func (r *refRouter) shortestPath(src, dst SegID, path []SegID) []SegID {
	const unreached = 1e18
	r.gen += 2
	if r.gen < 2 {
		clear(r.mark)
		r.gen = 2
	}
	reached, settled := r.gen, r.gen+1
	r.dist[src] = r.segCost(src)
	r.mark[src] = reached
	r.heap = append(r.heap[:0], refEntry{r.dist[src], src})
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
				r.heap.push(refEntry{nd, nxt})
			}
		}
	}
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

type refEntry struct {
	dist float64
	seg  SegID
}

func (e refEntry) less(f refEntry) bool {
	if e.dist != f.dist {
		return e.dist < f.dist
	}
	return e.seg < f.seg
}

// refFrontier is a binary min-heap whose push and pop swap entries as
// they sift, as container/heap does.
type refFrontier []refEntry

func (h *refFrontier) push(e refEntry) {
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

func (h *refFrontier) pop() refEntry {
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

// The negotiation factors the fuzz target draws from; 0 selects the
// default.
var (
	presFacs    = []float64{0, 0.1, 0.5, 2}
	presGrowths = []float64{0, 1.1, 1.6, 2.5}
	histFacs    = []float64{0, 0.4, 1.5, 0.05}
)

// within maps v into [lo, hi], keeping every value already there.
func within(v uint8, lo, hi int) int {
	n := hi - lo + 1
	return lo + ((int(v)-lo)%n+n)%n
}

// FuzzRouteGlobalMatchesReference routes random netlists under random
// negotiation settings with RouteGlobal and with refRouteGlobal, and
// requires the same path for every subnet and the same convergence.
// Arrays run from 1×1 to 10×10 with 1–3 nets per cell of 2–6 pins;
// the negotiation factors are indices into the sets above.
func FuzzRouteGlobalMatchesReference(f *testing.F) {
	// Corners of TestRouteGlobalPinned's sweep: its smallest and
	// largest arrays, pin ranges and localities under each of its
	// three settings ({} is capacity 4, 16 iterations), and the
	// largest draw.
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), int64(1), uint8(4), uint8(16), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(4), uint8(1), uint8(2), uint8(4), uint8(2), int64(2), uint8(2), uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(8), uint8(1), uint8(3), uint8(6), uint8(2), int64(2), uint8(6), uint8(16), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(8), uint8(8), uint8(1), uint8(2), uint8(2), uint8(0), int64(1), uint8(2), uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(10), uint8(10), uint8(3), uint8(2), uint8(6), uint8(4), int64(7), uint8(1), uint8(20), uint8(3), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, rows, cols, perCell, minPins, maxPins, locality uint8, seed int64,
		capacity, maxIters, presFac, presGrowth, histFac uint8) {
		p := GenParams{
			Rows: within(rows, 1, 10), Cols: within(cols, 1, 10),
			MinPins: within(minPins, 2, 6), MaxPins: within(maxPins, 2, 6),
			Locality: within(locality, 0, 4), Seed: seed,
		}
		p.NumNets = within(perCell, 1, 3) * p.Rows * p.Cols
		p.MinPins, p.MaxPins = min(p.MinPins, p.MaxPins), max(p.MinPins, p.MaxPins)
		o := RouteOptions{
			Capacity:   within(capacity, 1, 6),
			MaxIters:   within(maxIters, 1, 20),
			PresFac:    presFacs[within(presFac, 0, len(presFacs)-1)],
			PresGrowth: presGrowths[within(presGrowth, 0, len(presGrowths)-1)],
			HistFac:    histFacs[within(histFac, 0, len(histFacs)-1)],
		}
		nl, err := Generate("fuzz", p)
		if err != nil {
			t.Fatal(err)
		}
		gr, converged, err := RouteGlobal(nl, o)
		if err != nil {
			t.Fatalf("%+v %+v: %v", p, o, err)
		}
		want, wantConverged := refRouteGlobal(nl, o)
		if converged != wantConverged {
			t.Fatalf("%+v %+v: converged = %v, reference %v", p, o, converged, wantConverged)
		}
		for i, route := range gr.Routes {
			if !slices.Equal(route.Segs, want[i]) {
				t.Fatalf("%+v %+v: subnet %d (net %d, sink %d) = %v, reference %v",
					p, o, i, route.Net, route.Index, route.Segs, want[i])
			}
		}
	})
}
