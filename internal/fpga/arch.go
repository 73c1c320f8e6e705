// Package fpga models the island-style FPGA substrate of the paper's
// benchmarks: a grid of configurable logic blocks (CLBs) surrounded by
// horizontal and vertical routing channels with W tracks each,
// connection blocks that join CLB pins to the adjacent channel
// segment, and subset ("disjoint") switch blocks that preserve the
// track index when a route turns or continues at a channel
// intersection.
//
// Because subset switch blocks preserve track assignments, a 2-pin net
// occupies the same track in every connection block it passes through,
// which is exactly the property that makes detailed routing equivalent
// to coloring the conflict graph of 2-pin nets (Sect. 2 of the paper,
// after Wu and Marek-Sadowska).
//
// The package also provides a deterministic netlist generator and a
// negotiated-congestion (PathFinder-style) global router, substituting
// for the MCNC circuits and SEGA-1.1 global routings used by the
// paper, which are not redistributable (see DESIGN.md).
package fpga

import "fmt"

// Arch is an island-style FPGA array: Cols×Rows CLBs, horizontal
// channels y=0..Rows (each with Cols segments) and vertical channels
// x=0..Cols (each with Rows segments). A channel segment spans one CLB
// pitch between two switch blocks and carries one connection block.
type Arch struct {
	Rows, Cols int
}

// SegID identifies a channel segment: horizontal segments come first
// in row-major order, then vertical segments.
type SegID int

// NumHSegs returns the number of horizontal channel segments.
func (a Arch) NumHSegs() int { return (a.Rows + 1) * a.Cols }

// NumVSegs returns the number of vertical channel segments.
func (a Arch) NumVSegs() int { return (a.Cols + 1) * a.Rows }

// NumSegs returns the total number of channel segments.
func (a Arch) NumSegs() int { return a.NumHSegs() + a.NumVSegs() }

// HSeg returns the horizontal segment at channel y (0..Rows), position
// x (0..Cols-1).
func (a Arch) HSeg(x, y int) SegID {
	if x < 0 || x >= a.Cols || y < 0 || y > a.Rows {
		panic(fmt.Sprintf("fpga: hseg (%d,%d) out of range for %dx%d", x, y, a.Cols, a.Rows))
	}
	return SegID(y*a.Cols + x)
}

// VSeg returns the vertical segment at channel x (0..Cols), position y
// (0..Rows-1).
func (a Arch) VSeg(x, y int) SegID {
	if x < 0 || x > a.Cols || y < 0 || y >= a.Rows {
		panic(fmt.Sprintf("fpga: vseg (%d,%d) out of range for %dx%d", x, y, a.Cols, a.Rows))
	}
	return SegID(a.NumHSegs() + x*a.Rows + y)
}

// SegIsHorizontal reports whether s is a horizontal segment.
func (a Arch) SegIsHorizontal(s SegID) bool { return int(s) < a.NumHSegs() }

// SegCoords returns (x, y, horizontal) for a segment id.
func (a Arch) SegCoords(s SegID) (x, y int, horizontal bool) {
	if s < 0 || int(s) >= a.NumSegs() {
		panic(fmt.Sprintf("fpga: segment %d out of range", s))
	}
	if a.SegIsHorizontal(s) {
		return int(s) % a.Cols, int(s) / a.Cols, true
	}
	v := int(s) - a.NumHSegs()
	return v / a.Rows, v % a.Rows, false
}

// SegName returns a human-readable name like "H(3,0)" or "V(0,2)".
func (a Arch) SegName(s SegID) string {
	x, y, h := a.SegCoords(s)
	if h {
		return fmt.Sprintf("H(%d,%d)", x, y)
	}
	return fmt.Sprintf("V(%d,%d)", x, y)
}

// Adjacent returns the segments reachable from s through its two
// endpoint switch blocks. With subset switch blocks the track index is
// preserved across each returned adjacency.
func (a Arch) Adjacent(s SegID) []SegID {
	return a.appendAdjacent(nil, s)
}

// appendAdjacent appends Adjacent(s) to dst.
func (a Arch) appendAdjacent(dst []SegID, s SegID) []SegID {
	x0, y0, x1, y1 := a.segEnds(s)
	dst = a.appendSwitchBlockSegs(dst, x0, y0, s)
	return a.appendSwitchBlockSegs(dst, x1, y1, s)
}

// adjacent reports whether t is in Adjacent(s), without allocating:
// two distinct segments are adjacent exactly when they end at a common
// switch block.
func (a Arch) adjacent(s, t SegID) bool {
	if s == t {
		return false
	}
	sx0, sy0, sx1, sy1 := a.segEnds(s)
	tx0, ty0, tx1, ty1 := a.segEnds(t)
	return sx0 == tx0 && sy0 == ty0 || sx0 == tx1 && sy0 == ty1 ||
		sx1 == tx0 && sy1 == ty0 || sx1 == tx1 && sy1 == ty1
}

// segEnds returns the intersections (x0, y0) and (x1, y1) of the two
// switch blocks at the ends of s.
func (a Arch) segEnds(s SegID) (x0, y0, x1, y1 int) {
	x, y, horizontal := a.SegCoords(s)
	if horizontal {
		return x, y, x + 1, y
	}
	return x, y, x, y + 1
}

// appendSwitchBlockSegs appends to dst the segments other than skip
// incident to the switch block at intersection (x, y), x in 0..Cols,
// y in 0..Rows.
func (a Arch) appendSwitchBlockSegs(dst []SegID, x, y int, skip SegID) []SegID {
	add := func(t SegID) {
		if t != skip {
			dst = append(dst, t)
		}
	}
	if x-1 >= 0 {
		add(a.HSeg(x-1, y))
	}
	if x < a.Cols {
		add(a.HSeg(x, y))
	}
	if y-1 >= 0 {
		add(a.VSeg(x, y-1))
	}
	if y < a.Rows {
		add(a.VSeg(x, y))
	}
	return dst
}

// Side is a CLB pin side.
type Side int

const (
	Bottom Side = iota
	Top
	Left
	Right
)

func (s Side) String() string {
	switch s {
	case Bottom:
		return "S"
	case Top:
		return "N"
	case Left:
		return "W"
	case Right:
		return "E"
	}
	return "?"
}

// Pin is a logic-block pin: the CLB coordinates plus the side whose
// connection block it uses.
type Pin struct {
	X, Y int
	Side Side
}

func (p Pin) String() string {
	return fmt.Sprintf("(%d,%d).%s", p.X, p.Y, p.Side)
}

// PinSeg returns the channel segment p's connection block belongs to.
// Out-of-range pins are programmer errors and panic (internal/robust
// taxonomy); ParseNetlist/ParseRouting bound-check pins before any
// code can reach here.
func (a Arch) PinSeg(p Pin) SegID {
	if p.X < 0 || p.X >= a.Cols || p.Y < 0 || p.Y >= a.Rows {
		panic(fmt.Sprintf("fpga: pin %v outside %dx%d array", p, a.Cols, a.Rows))
	}
	switch p.Side {
	case Bottom:
		return a.HSeg(p.X, p.Y)
	case Top:
		return a.HSeg(p.X, p.Y+1)
	case Left:
		return a.VSeg(p.X, p.Y)
	case Right:
		return a.VSeg(p.X+1, p.Y)
	}
	panic(fmt.Sprintf("fpga: bad side %d", p.Side))
}

// Validate checks the architecture parameters.
func (a Arch) Validate() error {
	if a.Rows < 1 || a.Cols < 1 {
		return fmt.Errorf("fpga: array must be at least 1x1, got %dx%d", a.Cols, a.Rows)
	}
	return nil
}
