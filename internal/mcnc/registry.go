package mcnc

// Instance registries: a line-oriented text format that lets the cmd/
// tools load benchmark definitions from a file instead of the built-in
// table. The parse path follows the input-robustness contract of
// package robust — corrupted files of any shape produce a
// *robust.InputError with file/line context and can never panic or
// drive the generator into pathological allocations.
//
// Format (one instance per line, '#' starts a comment):
//
//	instance <name> rows=R cols=C nets=N minpins=A maxpins=B \
//	    locality=L seed=S capacity=P w=W [xtalk=X] [hard]
//
// xtalk >= 2 marks a bandwidth-coloring (crosstalk) instance; see
// Instance.Crosstalk.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpgasat/internal/fpga"
	"fpgasat/internal/robust"
)

// MaxCapacity caps a parsed instance's channel capacity and width.
// With fpga.MaxArrayDim, fpga.MaxNets and fpga.MaxPinsPerNet, which
// ParseInstances enforces on the generator's parameters, it bounds the
// work a parsed registry can demand (the generator allocates
// O(rows·cols·capacity) routing resources and O(nets·maxpins) pins),
// so a hostile or fuzzed file fails fast instead of exhausting memory.
const MaxCapacity = 256

// ParseInstances reads an instance registry. source names the input in
// errors (typically the file path). The returned instances are
// validated against the caps above and against each other (duplicate
// names are rejected); errors are *robust.InputError.
func ParseInstances(source string, r io.Reader) ([]Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Instance
	seen := make(map[string]bool)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return &robust.InputError{Source: source, Line: lineNo, Err: fmt.Errorf(format, args...)}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "instance" {
			return nil, fail("expected %q, got %q", "instance", fields[0])
		}
		if len(fields) < 2 {
			return nil, fail("instance line lacks a name")
		}
		in := Instance{Name: fields[1]}
		if seen[in.Name] {
			return nil, fail("duplicate instance %q", in.Name)
		}
		set := make(map[string]bool)
		for _, f := range fields[2:] {
			if f == "hard" {
				in.Hard = true
				continue
			}
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fail("malformed field %q (want key=value)", f)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fail("field %s: %q is not an integer", key, val)
			}
			if set[key] {
				return nil, fail("duplicate field %s", key)
			}
			set[key] = true
			switch key {
			case "rows":
				in.Gen.Rows = n
			case "cols":
				in.Gen.Cols = n
			case "nets":
				in.Gen.NumNets = n
			case "minpins":
				in.Gen.MinPins = n
			case "maxpins":
				in.Gen.MaxPins = n
			case "locality":
				in.Gen.Locality = n
			case "seed":
				in.Gen.Seed = int64(n)
			case "capacity":
				in.Route.Capacity = n
			case "w":
				in.RoutableW = n
			case "xtalk":
				in.Crosstalk = n
			default:
				return nil, fail("unknown field %s", key)
			}
		}
		if err := validateInstance(in); err != nil {
			return nil, fail("instance %s: %w", in.Name, err)
		}
		seen[in.Name] = true
		out = append(out, in)
	}
	if err := sc.Err(); err != nil {
		return nil, &robust.InputError{Source: source, Line: lineNo, Err: err}
	}
	if len(out) == 0 {
		lineNo = 0
		return nil, fail("no instances defined")
	}
	return out, nil
}

// validateInstance enforces the generator caps and internal
// consistency of one parsed instance.
func validateInstance(in Instance) error {
	switch {
	case in.Name == "":
		return fmt.Errorf("empty name")
	case in.Gen.Rows < 1 || in.Gen.Rows > fpga.MaxArrayDim:
		return fmt.Errorf("rows %d outside [1,%d]", in.Gen.Rows, fpga.MaxArrayDim)
	case in.Gen.Cols < 1 || in.Gen.Cols > fpga.MaxArrayDim:
		return fmt.Errorf("cols %d outside [1,%d]", in.Gen.Cols, fpga.MaxArrayDim)
	case in.Gen.NumNets < 1 || in.Gen.NumNets > fpga.MaxNets:
		return fmt.Errorf("nets %d outside [1,%d]", in.Gen.NumNets, fpga.MaxNets)
	case in.Gen.MinPins < 2 || in.Gen.MinPins > fpga.MaxPinsPerNet:
		return fmt.Errorf("minpins %d outside [2,%d]", in.Gen.MinPins, fpga.MaxPinsPerNet)
	case in.Gen.MaxPins < in.Gen.MinPins || in.Gen.MaxPins > fpga.MaxPinsPerNet:
		return fmt.Errorf("maxpins %d outside [minpins,%d]", in.Gen.MaxPins, fpga.MaxPinsPerNet)
	case in.Gen.Locality < 1 || in.Gen.Locality > fpga.MaxArrayDim:
		return fmt.Errorf("locality %d outside [1,%d]", in.Gen.Locality, fpga.MaxArrayDim)
	case in.Route.Capacity < 1 || in.Route.Capacity > MaxCapacity:
		return fmt.Errorf("capacity %d outside [1,%d]", in.Route.Capacity, MaxCapacity)
	case in.RoutableW < 1 || in.RoutableW > MaxCapacity:
		return fmt.Errorf("w %d outside [1,%d]", in.RoutableW, MaxCapacity)
	case in.Crosstalk < 0 || in.Crosstalk > fpga.MaxCrosstalk:
		return fmt.Errorf("xtalk %d outside [0,%d]", in.Crosstalk, fpga.MaxCrosstalk)
	}
	return nil
}

// WriteInstances writes a registry in the format ParseInstances reads;
// ParseInstances(WriteInstances(x)) round-trips.
func WriteInstances(w io.Writer, instances []Instance) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# fpgasat instance registry")
	for _, in := range instances {
		fmt.Fprintf(bw, "instance %s rows=%d cols=%d nets=%d minpins=%d maxpins=%d locality=%d seed=%d capacity=%d w=%d",
			in.Name, in.Gen.Rows, in.Gen.Cols, in.Gen.NumNets, in.Gen.MinPins, in.Gen.MaxPins,
			in.Gen.Locality, in.Gen.Seed, in.Route.Capacity, in.RoutableW)
		if in.Crosstalk > 0 {
			fmt.Fprintf(bw, " xtalk=%d", in.Crosstalk)
		}
		if in.Hard {
			fmt.Fprint(bw, " hard")
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
