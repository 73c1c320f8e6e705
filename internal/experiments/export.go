package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fpgasat/internal/coloring"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
)

// ExportRow is one exported instance's statistics.
type ExportRow struct {
	Instance              string
	Cols, Rows            int
	Nets, TwoPinNets      int
	V, E                  int
	Congestion, RoutableW int
}

// ExportResult lists the exported instances.
type ExportResult struct {
	Dir  string
	Rows []ExportRow
}

// RunExport regenerates the instances (nil means mcnc.Instances()) and
// writes three files per instance into dir, so every step of the flow
// can also be fed to third-party tools: the conflict graph in DIMACS
// edge format (<name>.col), the placed netlist (<name>.net) and its
// global routing (<name>.route). progress, when non-nil, receives one
// line per file written.
func RunExport(dir string, insts []mcnc.Instance, progress io.Writer) (*ExportResult, error) {
	if insts == nil {
		insts = mcnc.Instances()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &ExportResult{Dir: dir}
	for _, in := range insts {
		gr, g, err := in.Build()
		if err != nil {
			return nil, err
		}
		comment := fmt.Sprintf("instance %s: routable W=%d, unroutable W=%d, clique>=%d",
			in.Name, in.RoutableW, in.UnroutableW(), len(coloring.GreedyClique(g)))
		files := []struct {
			ext   string
			write func(io.Writer) error
		}{
			{".col", func(w io.Writer) error { return graph.WriteDIMACS(w, g, comment) }},
			{".net", func(w io.Writer) error { return fpga.WriteNetlist(w, gr.Netlist) }},
			{".route", func(w io.Writer) error { return fpga.WriteRouting(w, gr) }},
		}
		for _, f := range files {
			path := filepath.Join(dir, in.Name+f.ext)
			if err := WriteFile(path, f.write); err != nil {
				return nil, err
			}
			if progress != nil {
				fmt.Fprintf(progress, "wrote %s\n", path)
			}
		}
		res.Rows = append(res.Rows, ExportRow{
			Instance: in.Name, Cols: in.Gen.Cols, Rows: in.Gen.Rows,
			Nets: len(gr.Netlist.Nets), TwoPinNets: len(gr.Routes), V: g.N(), E: g.M(),
			Congestion: gr.MaxCongestion(), RoutableW: in.RoutableW,
		})
	}
	return res, nil
}

// Markdown renders the exported instances' statistics.
func (r *ExportResult) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Exported instances — .col, .net and .route files in %s\n\n", r.Dir)
	header := []string{"Benchmark", "Array", "Nets", "2-pin nets", "V", "E", "Max congestion", "RoutableW"}
	var rows [][]string
	for _, e := range r.Rows {
		rows = append(rows, []string{
			e.Instance, fmt.Sprintf("%dx%d", e.Cols, e.Rows), strconv.Itoa(e.Nets), strconv.Itoa(e.TwoPinNets),
			strconv.Itoa(e.V), strconv.Itoa(e.E), strconv.Itoa(e.Congestion), strconv.Itoa(e.RoutableW),
		})
	}
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}

// WriteFile creates path and fills it with write. The Close error is
// returned too, since a failed write-back loses data as surely as a
// failed write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
