package fpga

import "fmt"

// Net is a multi-pin net: Pins[0] is the source (driver), the rest are
// sinks.
type Net struct {
	Name string
	Pins []Pin
}

// Netlist is a placed circuit on an island-style array: the
// architecture plus the nets to route.
type Netlist struct {
	Name string
	Arch Arch
	Nets []Net
}

// Validate checks that every net has a source and at least one sink
// and that all pins are on the array.
func (nl *Netlist) Validate() error {
	if err := nl.Arch.Validate(); err != nil {
		return err
	}
	for i, n := range nl.Nets {
		if len(n.Pins) < 2 {
			return fmt.Errorf("fpga: net %d (%s) has %d pins, need >= 2", i, n.Name, len(n.Pins))
		}
		for _, p := range n.Pins {
			if p.X < 0 || p.X >= nl.Arch.Cols || p.Y < 0 || p.Y >= nl.Arch.Rows {
				return fmt.Errorf("fpga: net %d (%s) pin %v outside array", i, n.Name, p)
			}
			if p.Side < Bottom || p.Side > Right {
				return fmt.Errorf("fpga: net %d (%s) pin %v has bad side", i, n.Name, p)
			}
		}
	}
	return nil
}

// NumPins returns the total pin count over all nets.
func (nl *Netlist) NumPins() int {
	n := 0
	for _, net := range nl.Nets {
		n += len(net.Pins)
	}
	return n
}

// TwoPinNet is one 2-pin subnet of a decomposed multi-pin net: the
// sequence of channel segments its global route passes through,
// from the segment adjacent to Src to the segment adjacent to Dst.
type TwoPinNet struct {
	Net   int // index of the parent multi-pin net in the netlist
	Index int // index of this subnet within the parent net
	Src   Pin
	Dst   Pin
	Segs  []SegID
}

// Label names the subnet as reports and errors print it: "n12.3" is
// subnet 3 of net n12.
func (t TwoPinNet) Label(nl *Netlist) string {
	return fmt.Sprintf("%s.%d", nl.Nets[t.Net].Name, t.Index)
}

// GlobalRouting is a complete global routing of a netlist: every
// multi-pin net decomposed into 2-pin nets with segment-level paths,
// not yet assigned to tracks. This is the input of the paper's
// detailed-routing problem (what SEGA-1.1 supplied for the MCNC
// benchmarks).
type GlobalRouting struct {
	Netlist *Netlist
	Routes  []TwoPinNet
}

// Validate checks that the routes are exactly the netlist's 2-pin
// subnets, each routed once: a route's Index names one of its net's
// sinks, its Src is the net's source and its Dst that sink, and no
// (Net, Index) pair repeats or is missing. It also checks that every
// route is a connected segment path joining its endpoints' connection
// blocks.
func (gr *GlobalRouting) Validate() error {
	nl := gr.Netlist
	arch := nl.Arch
	// Subnet si of net ni has slot first[ni]+si in routed. Keying on
	// the index, not the sink pin, keeps two sinks on one pin apart.
	first := make([]int, len(nl.Nets)+1)
	for ni, net := range nl.Nets {
		first[ni+1] = first[ni] + max(len(net.Pins)-1, 0)
	}
	routed := make([]bool, first[len(nl.Nets)])
	for ri, r := range gr.Routes {
		if r.Net < 0 || r.Net >= len(nl.Nets) {
			return fmt.Errorf("fpga: route %d references net %d", ri, r.Net)
		}
		net := nl.Nets[r.Net]
		if r.Index < 0 || r.Index >= len(net.Pins)-1 {
			return fmt.Errorf("fpga: route %d references subnet %d of net %d (%s), which has %d sinks",
				ri, r.Index, r.Net, net.Name, len(net.Pins)-1)
		}
		if r.Src != net.Pins[0] || r.Dst != net.Pins[1+r.Index] {
			return fmt.Errorf("fpga: route %d (%s) joins %v to %v, but the subnet joins %v to %v",
				ri, r.Label(nl), r.Src, r.Dst, net.Pins[0], net.Pins[1+r.Index])
		}
		slot := first[r.Net] + r.Index
		if routed[slot] {
			return fmt.Errorf("fpga: route %d (%s) routes a subnet a second time", ri, r.Label(nl))
		}
		routed[slot] = true
		if len(r.Segs) == 0 {
			return fmt.Errorf("fpga: route %d (%s) has no segments", ri, r.Label(nl))
		}
		if r.Segs[0] != arch.PinSeg(r.Src) {
			return fmt.Errorf("fpga: route %d does not start at source pin segment", ri)
		}
		if r.Segs[len(r.Segs)-1] != arch.PinSeg(r.Dst) {
			return fmt.Errorf("fpga: route %d does not end at sink pin segment", ri)
		}
		for i := 1; i < len(r.Segs); i++ {
			if !arch.adjacent(r.Segs[i-1], r.Segs[i]) {
				return fmt.Errorf("fpga: route %d hop %d: %s not adjacent to %s", ri, i,
					arch.SegName(r.Segs[i-1]), arch.SegName(r.Segs[i]))
			}
		}
	}
	for ni, net := range nl.Nets {
		for si := 0; si < first[ni+1]-first[ni]; si++ {
			if !routed[first[ni]+si] {
				return fmt.Errorf("fpga: net %d (%s) sink %d %v has no route", ni, net.Name, si, net.Pins[1+si])
			}
		}
	}
	return nil
}

// Occupancy returns, per segment, the number of distinct multi-pin
// nets whose routes pass through it. Subnets of the same net share
// tracks, so they count once.
func (gr *GlobalRouting) Occupancy() []int {
	occ := make([]int, gr.Netlist.Arch.NumSegs())
	seen := make(map[int64]bool)
	for _, r := range gr.Routes {
		for _, s := range r.Segs {
			key := int64(r.Net)<<32 | int64(s)
			if !seen[key] {
				seen[key] = true
				occ[s]++
			}
		}
	}
	return occ
}

// MaxCongestion returns the maximum segment occupancy — a lower bound
// on the channel width required for any detailed routing, since nets
// sharing a connection block form a clique in the conflict graph.
func (gr *GlobalRouting) MaxCongestion() int {
	max := 0
	for _, o := range gr.Occupancy() {
		if o > max {
			max = o
		}
	}
	return max
}

// TotalWirelength returns the total number of segment hops over all
// routes.
func (gr *GlobalRouting) TotalWirelength() int {
	n := 0
	for _, r := range gr.Routes {
		n += len(r.Segs)
	}
	return n
}
