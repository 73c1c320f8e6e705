package fpga

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpgasat/internal/robust"
)

// This file provides a plain-text interchange format for netlists and
// global routings, playing the role SEGA's benchmark files played for
// the paper: placed circuits and their global routings can be saved,
// inspected and re-loaded, so detailed-routing experiments can run on
// externally supplied inputs as well as generated ones.
//
// Netlist format (one token stream, # comments):
//
//	netlist <name> <cols> <rows>
//	net <name> <x> <y> <side> [<x> <y> <side> ...]   # first pin drives
//
// Routing format (requires the netlist for validation):
//
//	routing <netlist-name>
//	route <net-index> <subnet-index> <src-x> <src-y> <src-side> \
//	      <dst-x> <dst-y> <dst-side> <seg> [<seg> ...]
//
// Sides are the single letters N, S, W, E; segments are written as
// H(x,y) / V(x,y) as printed by Arch.SegName.

// WriteNetlist serializes a netlist.
func WriteNetlist(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fpgasat netlist\nnetlist %s %d %d\n", nl.Name, nl.Arch.Cols, nl.Arch.Rows)
	for _, n := range nl.Nets {
		fmt.Fprintf(bw, "net %s", n.Name)
		for _, p := range n.Pins {
			fmt.Fprintf(bw, " %d %d %s", p.X, p.Y, p.Side)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Caps on a netlist read from outside the program, enforced by
// ParseNetlist and, on the generator's parameters, by
// mcnc.ParseInstances. The router allocates about 68 bytes per channel
// segment of a rows×cols array, and pins grow with nets × pins per
// net, so a hostile or fuzzed file fails fast instead of exhausting
// memory.
const (
	MaxArrayDim   = 256
	MaxNets       = 100000
	MaxPinsPerNet = 64
)

// ParseNetlist reads the text format written by WriteNetlist, within
// the caps above.
func ParseNetlist(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var nl *Netlist
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "netlist":
			if nl != nil {
				return nil, fmt.Errorf("fpga: line %d: duplicate netlist header", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("fpga: line %d: malformed netlist header", line)
			}
			cols, err1 := strconv.Atoi(fields[2])
			rows, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("fpga: line %d: bad array size", line)
			}
			if cols < 1 || cols > MaxArrayDim || rows < 1 || rows > MaxArrayDim {
				return nil, fmt.Errorf("fpga: line %d: array %dx%d outside [1,%d] on a side",
					line, cols, rows, MaxArrayDim)
			}
			nl = &Netlist{Name: fields[1], Arch: Arch{Rows: rows, Cols: cols}}
		case "net":
			if nl == nil {
				return nil, fmt.Errorf("fpga: line %d: net before netlist header", line)
			}
			if len(fields) < 2 || (len(fields)-2)%3 != 0 {
				return nil, fmt.Errorf("fpga: line %d: malformed net line", line)
			}
			if len(nl.Nets) == MaxNets {
				return nil, fmt.Errorf("fpga: line %d: more than %d nets", line, MaxNets)
			}
			if pins := (len(fields) - 2) / 3; pins > MaxPinsPerNet {
				return nil, fmt.Errorf("fpga: line %d: %d pins, more than %d", line, pins, MaxPinsPerNet)
			}
			net := Net{Name: fields[1]}
			for i := 2; i < len(fields); i += 3 {
				p, err := parsePin(fields[i], fields[i+1], fields[i+2])
				if err != nil {
					return nil, fmt.Errorf("fpga: line %d: %w", line, err)
				}
				net.Pins = append(net.Pins, p)
			}
			nl.Nets = append(nl.Nets, net)
		default:
			return nil, fmt.Errorf("fpga: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if nl == nil {
		return nil, fmt.Errorf("fpga: missing netlist header")
	}
	// The validator is written for in-process netlists, where invariant
	// violations are programmer errors; parsed input must never be able
	// to crash the process, so a panic here is converted to an error
	// (robustness contract of package robust).
	var verr error
	if cerr := robust.Capture("netlist validation", func() { verr = nl.Validate() }); cerr != nil {
		return nil, &robust.InputError{Source: "netlist", Err: cerr}
	}
	if verr != nil {
		return nil, verr
	}
	return nl, nil
}

func parsePin(xs, ys, side string) (Pin, error) {
	x, err1 := strconv.Atoi(xs)
	y, err2 := strconv.Atoi(ys)
	if err1 != nil || err2 != nil {
		return Pin{}, fmt.Errorf("bad pin coordinates %q %q", xs, ys)
	}
	s, err := parseSide(side)
	if err != nil {
		return Pin{}, err
	}
	return Pin{X: x, Y: y, Side: s}, nil
}

func parseSide(s string) (Side, error) {
	switch s {
	case "S":
		return Bottom, nil
	case "N":
		return Top, nil
	case "W":
		return Left, nil
	case "E":
		return Right, nil
	}
	return 0, fmt.Errorf("bad side %q", s)
}

// WriteRouting serializes a global routing (without its netlist).
func WriteRouting(w io.Writer, gr *GlobalRouting) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fpgasat global routing\nrouting %s\n", gr.Netlist.Name)
	arch := gr.Netlist.Arch
	for _, r := range gr.Routes {
		fmt.Fprintf(bw, "route %d %d %d %d %s %d %d %s",
			r.Net, r.Index, r.Src.X, r.Src.Y, r.Src.Side, r.Dst.X, r.Dst.Y, r.Dst.Side)
		for _, s := range r.Segs {
			fmt.Fprintf(bw, " %s", arch.SegName(s))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ParseRouting reads a global routing written by WriteRouting and
// validates it against the netlist.
func ParseRouting(r io.Reader, nl *Netlist) (*GlobalRouting, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	gr := &GlobalRouting{Netlist: nl}
	headerSeen := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "routing":
			if len(fields) != 2 || fields[1] != nl.Name {
				return nil, fmt.Errorf("fpga: line %d: routing header %q does not match netlist %q",
					line, text, nl.Name)
			}
			headerSeen = true
		case "route":
			if !headerSeen {
				return nil, fmt.Errorf("fpga: line %d: route before routing header", line)
			}
			if len(fields) < 10 {
				return nil, fmt.Errorf("fpga: line %d: malformed route", line)
			}
			ni, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("fpga: line %d: bad net index", line)
			}
			si, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("fpga: line %d: bad subnet index", line)
			}
			if ni < 0 || ni >= len(nl.Nets) {
				return nil, fmt.Errorf("fpga: line %d: net index %d outside netlist (%d nets)",
					line, ni, len(nl.Nets))
			}
			src, err := parsePin(fields[3], fields[4], fields[5])
			if err != nil {
				return nil, fmt.Errorf("fpga: line %d: %w", line, err)
			}
			dst, err := parsePin(fields[6], fields[7], fields[8])
			if err != nil {
				return nil, fmt.Errorf("fpga: line %d: %w", line, err)
			}
			// Bound-check here, at the input boundary: downstream
			// consumers (Arch.PinSeg, Validate) treat out-of-range pins
			// as programmer errors and panic.
			for _, p := range []Pin{src, dst} {
				if p.X < 0 || p.X >= nl.Arch.Cols || p.Y < 0 || p.Y >= nl.Arch.Rows {
					return nil, fmt.Errorf("fpga: line %d: pin %v outside %dx%d array",
						line, p, nl.Arch.Cols, nl.Arch.Rows)
				}
			}
			route := TwoPinNet{Net: ni, Index: si, Src: src, Dst: dst}
			for _, seg := range fields[9:] {
				s, err := parseSegName(nl.Arch, seg)
				if err != nil {
					return nil, fmt.Errorf("fpga: line %d: %w", line, err)
				}
				route.Segs = append(route.Segs, s)
			}
			gr.Routes = append(gr.Routes, route)
		default:
			return nil, fmt.Errorf("fpga: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !headerSeen {
		return nil, fmt.Errorf("fpga: missing routing header")
	}
	// Same contract as ParseNetlist: a validator panic on corrupted
	// parsed input becomes an error, never a crash.
	var verr error
	if cerr := robust.Capture("routing validation", func() { verr = gr.Validate() }); cerr != nil {
		return nil, &robust.InputError{Source: "routing", Err: cerr}
	}
	if verr != nil {
		return nil, verr
	}
	return gr, nil
}

// parseSegName parses "H(x,y)" / "V(x,y)" as printed by Arch.SegName.
func parseSegName(a Arch, s string) (SegID, error) {
	if len(s) < 6 || s[1] != '(' || s[len(s)-1] != ')' {
		return 0, fmt.Errorf("bad segment %q", s)
	}
	parts := strings.Split(s[2:len(s)-1], ",")
	if len(parts) != 2 {
		return 0, fmt.Errorf("bad segment %q", s)
	}
	x, err1 := strconv.Atoi(parts[0])
	y, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad segment %q", s)
	}
	switch s[0] {
	case 'H':
		if x < 0 || x >= a.Cols || y < 0 || y > a.Rows {
			return 0, fmt.Errorf("segment %q outside array", s)
		}
		return a.HSeg(x, y), nil
	case 'V':
		if x < 0 || x > a.Cols || y < 0 || y >= a.Rows {
			return 0, fmt.Errorf("segment %q outside array", s)
		}
		return a.VSeg(x, y), nil
	}
	return 0, fmt.Errorf("bad segment %q", s)
}
