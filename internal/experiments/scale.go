package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
)

// ScaleConfig drives the scaling study: tile-templated instances far
// beyond the MCNC suite (factor 100 exceeds 10⁵ nets), measured through
// generation and streaming encode. Solving is deliberately excluded —
// the study answers whether the representation and encode layers keep
// up, and the instances' minimum width is known by construction.
type ScaleConfig struct {
	// Factors are the scale multipliers to measure (default 1, 10, 100).
	Factors []int
	// Encoding is the paper-style encoding name streamed at each point
	// (default "ITE-linear-2+muldirect", the portfolio workhorse).
	Encoding string
	Progress io.Writer
}

// ScaleRow is one scale point's measurement.
type ScaleRow struct {
	Factor       int
	Rows         int
	Cols         int
	W            int
	Nets         int
	Edges        int
	CliqueLB     int
	GraphBytes   int // peak CSR storage of the conflict graph
	GenNS        int64
	EncodeNS     int64
	Vars         int
	Clauses      int
	ClausesPerSc float64
}

// ScaleResult aggregates the scaling study for Markdown and JSON
// output (BENCH_scale.json).
type ScaleResult struct {
	Encoding string
	Rows     []ScaleRow
}

// discard drops every streamed clause. The encoder counts them itself
// (core.Streamed), so the scale study times emission alone.
type discard struct{}

func (discard) AddClause(...int) {}

// RunScale generates and encodes one instance per scale factor,
// verifying each instance's known-width witness before timing it.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	factors := cfg.Factors
	if len(factors) == 0 {
		factors = []int{1, 10, 100}
	}
	encName := cfg.Encoding
	if encName == "" {
		encName = "ITE-linear-2+muldirect"
	}
	enc, err := core.ByName(encName)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{Encoding: encName}
	for _, factor := range factors {
		p := fpga.ScaledFabric(factor)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "scale %dx: generating %dx%d fabric W=%d\n",
				factor, p.Cols, p.Rows, p.ChannelWidth)
		}
		genStart := time.Now()
		g, stats, err := fpga.GenerateScaled(p)
		if err != nil {
			return nil, err
		}
		genNS := time.Since(genStart).Nanoseconds()
		// The instance is W-routable by construction; check the witness
		// (outside the timed sections) so the numbers describe a real
		// routing problem, not a malformed graph.
		if err := coloring.Verify(g, fpga.BlockColoring(p), p.ChannelWidth); err != nil {
			return nil, fmt.Errorf("scale %dx: block coloring witness broken: %v", factor, err)
		}
		if stats.CliqueLB != p.ChannelWidth {
			return nil, fmt.Errorf("scale %dx: clique bound %d != W=%d", factor, stats.CliqueLB, p.ChannelWidth)
		}
		csp := core.NewCSP(g, p.ChannelWidth)
		encStart := time.Now()
		st := core.EncodeInto(csp, enc, discard{})
		encNS := time.Since(encStart).Nanoseconds()
		clauses := st.StructuralClauses + st.ConflictClauses
		row := ScaleRow{
			Factor: factor, Rows: p.Rows, Cols: p.Cols, W: p.ChannelWidth,
			Nets: stats.Nets, Edges: stats.Edges, CliqueLB: stats.CliqueLB,
			GraphBytes: stats.GraphBytes,
			GenNS:      genNS, EncodeNS: encNS,
			Vars: st.NumVars, Clauses: clauses,
			ClausesPerSc: float64(clauses) / (float64(encNS) / 1e9),
		}
		res.Rows = append(res.Rows, row)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "scale %dx: %d nets, %d edges, %d clauses in %s\n",
				factor, row.Nets, row.Edges, row.Clauses, time.Duration(encNS).Round(time.Millisecond))
		}
	}
	return res, nil
}

// Markdown renders the scaling study as the table recorded in
// EXPERIMENTS.md.
func (r *ScaleResult) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Scaling study: tile-templated instances (encoding " + r.Encoding + ")\n\n")
	header := []string{"scale", "fabric", "W", "nets", "edges", "graph", "generate", "encode", "clauses", "clauses/s"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d×", row.Factor),
			fmt.Sprintf("%d×%d", row.Cols, row.Rows),
			fmt.Sprintf("%d", row.W),
			fmt.Sprintf("%d", row.Nets),
			fmt.Sprintf("%d", row.Edges),
			fmtBytes(row.GraphBytes),
			time.Duration(row.GenNS).Round(time.Millisecond).String(),
			time.Duration(row.EncodeNS).Round(time.Millisecond).String(),
			fmt.Sprintf("%d", row.Clauses),
			fmt.Sprintf("%.2gM", row.ClausesPerSc/1e6),
		})
	}
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Report converts the study to the unified bench envelope: one series
// per metric, one point per scale factor.
func (r *ScaleResult) Report() *BenchReport {
	labels := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = fmt.Sprintf("%dx", row.Factor)
	}
	rows := r.Rows
	return &BenchReport{
		Schema: BenchSchema,
		Bench:  "scale",
		Meta:   newBenchMeta(map[string]string{"encoding": r.Encoding}),
		Series: []BenchSeries{
			series("nets", "count", labels, func(i int) float64 { return float64(rows[i].Nets) }),
			series("edges", "count", labels, func(i int) float64 { return float64(rows[i].Edges) }),
			series("graph_bytes", "bytes", labels, func(i int) float64 { return float64(rows[i].GraphBytes) }),
			series("gen_ns", "ns", labels, func(i int) float64 { return float64(rows[i].GenNS) }),
			series("encode_ns", "ns", labels, func(i int) float64 { return float64(rows[i].EncodeNS) }),
			series("vars", "count", labels, func(i int) float64 { return float64(rows[i].Vars) }),
			series("clauses", "count", labels, func(i int) float64 { return float64(rows[i].Clauses) }),
			series("clauses_per_sec", "1/s", labels, func(i int) float64 { return rows[i].ClausesPerSc }),
		},
	}
}
