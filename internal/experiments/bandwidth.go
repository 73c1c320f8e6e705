package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// BandwidthConfig drives the bandwidth-coloring study: the crosstalk
// (distance-annotated) instances solved to their exact minimum span by
// the incremental width search, once per encoding of the bandwidth
// family. The study compares how the order/ladder encoding's compact
// interval clauses fare against the windowed pairwise conflicts of the
// distance-aware direct and log encodings — the bandwidth analogue of
// the paper's encoding comparison.
type BandwidthConfig struct {
	// Instances defaults to mcnc.DistanceInstances().
	Instances []mcnc.Instance
	// Encodings are bandwidth-capable encoding names (default
	// core.BandwidthEncodingNames). Symmetry breaking is never applied:
	// the color-permutation heuristics are unsound under distance
	// constraints.
	Encodings []string
	// Timeout bounds each MinWidth search; 0 means none.
	Timeout  time.Duration
	Progress io.Writer
	Pool     *sat.Pool
}

// BandwidthRow is one (instance, encoding) measurement: the full
// MinWidth staircase — encode once at Hi, probe every width down to
// the proved minimum.
type BandwidthRow struct {
	Instance  string `json:"instance"`
	Crosstalk int    `json:"crosstalk"`
	Encoding  string `json:"encoding"`
	MinWidth  int    `json:"min_width"`
	SearchNS  int64  `json:"search_ns"`
	EncodeNS  int64  `json:"encode_ns"`
	Conflicts int64  `json:"conflicts"`
	Probes    int    `json:"probes"`
	Clauses   int64  `json:"clauses"`
	Vars      int    `json:"vars"`
}

// BandwidthResult aggregates the study for Markdown and JSON output
// (BENCH_bandwidth.json).
type BandwidthResult struct {
	Encodings []string
	Rows      []BandwidthRow
}

// countingSink counts clauses on the way into another sink-free encode
// pass; the study re-encodes once outside the timed search to report
// formula sizes.
type countingSink struct{ clauses int64 }

func (s *countingSink) AddClause(lits ...int) { s.clauses++ }

// RunBandwidth solves every distance instance to its proved minimum
// span with every bandwidth encoding, verifying each result against
// the instance's calibrated width.
func RunBandwidth(cfg BandwidthConfig) (*BandwidthResult, error) {
	insts := cfg.Instances
	if insts == nil {
		insts = mcnc.DistanceInstances()
	}
	encodings := cfg.Encodings
	if encodings == nil {
		encodings = core.BandwidthEncodingNames
	}
	res := &BandwidthResult{Encodings: encodings}
	for _, in := range insts {
		_, g, err := in.Build()
		if err != nil {
			return nil, err
		}
		for _, encName := range encodings {
			strat, err := core.ParseStrategy(encName + "/-")
			if err != nil {
				return nil, err
			}
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if cfg.Timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			start := time.Now()
			sr, err := search.MinWidth(ctx, g, search.Options{
				Strategy: strat,
				Hi:       in.RoutableW + 2,
				Pool:     cfg.Pool,
			})
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("experiments: bandwidth %s/%s: %w", in.Name, encName, err)
			}
			if !sr.ProvedOptimal || sr.MinWidth != in.RoutableW {
				return nil, fmt.Errorf("experiments: bandwidth %s/%s found width %d (proved %v), calibrated %d",
					in.Name, encName, sr.MinWidth, sr.ProvedOptimal, in.RoutableW)
			}
			var conflicts int64
			for _, p := range sr.Probes {
				conflicts += p.Conflicts
			}
			// Formula size at the search's upper bound, measured outside
			// the timed section.
			sink := &countingSink{}
			st := core.EncodeInto(core.NewCSP(g, in.RoutableW+2), strat.Encoding, sink)
			row := BandwidthRow{
				Instance: in.Name, Crosstalk: in.Crosstalk, Encoding: encName,
				MinWidth: sr.MinWidth, SearchNS: elapsed.Nanoseconds(),
				EncodeNS: sr.EncodeTime.Nanoseconds(), Conflicts: conflicts,
				Probes: len(sr.Probes), Clauses: sink.clauses, Vars: st.NumVars,
			}
			res.Rows = append(res.Rows, row)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-12s %-8s span=%d %8.3fs %8d conflicts %8d clauses\n",
					in.Name, encName, row.MinWidth, elapsed.Seconds(), conflicts, row.Clauses)
			}
		}
	}
	return res, nil
}

// Markdown renders the study in the EXPERIMENTS.md table format: one
// row per instance, search time and clause count per encoding.
func (r *BandwidthResult) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Bandwidth-coloring study — crosstalk instances solved to their minimum span\n\n")
	header := []string{"Benchmark", "xtalk", "span"}
	for _, e := range r.Encodings {
		header = append(header, e+" [s]", e+" clauses")
	}
	byInstance := map[string][]BandwidthRow{}
	var order []string
	for _, row := range r.Rows {
		if _, ok := byInstance[row.Instance]; !ok {
			order = append(order, row.Instance)
		}
		byInstance[row.Instance] = append(byInstance[row.Instance], row)
	}
	var rows [][]string
	for _, name := range order {
		group := byInstance[name]
		cells := []string{name, fmt.Sprintf("%d", group[0].Crosstalk), fmt.Sprintf("%d", group[0].MinWidth)}
		for _, e := range r.Encodings {
			var found *BandwidthRow
			for i := range group {
				if group[i].Encoding == e {
					found = &group[i]
					break
				}
			}
			if found == nil {
				cells = append(cells, "—", "—")
				continue
			}
			cells = append(cells,
				fmt.Sprintf("%.3f", time.Duration(found.SearchNS).Seconds()),
				fmt.Sprintf("%d", found.Clauses))
		}
		rows = append(rows, cells)
	}
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}

// Report converts the study to the unified bench envelope: per-metric
// series with "instance/encoding" labels.
func (r *BandwidthResult) Report() *BenchReport {
	labels := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = row.Instance + "/" + row.Encoding
	}
	rows := r.Rows
	return &BenchReport{
		Schema: BenchSchema,
		Bench:  "bandwidth",
		Meta:   newBenchMeta(map[string]string{"encodings": strings.Join(r.Encodings, ",")}),
		Series: []BenchSeries{
			series("min_width", "count", labels, func(i int) float64 { return float64(rows[i].MinWidth) }),
			series("search_ns", "ns", labels, func(i int) float64 { return float64(rows[i].SearchNS) }),
			series("encode_ns", "ns", labels, func(i int) float64 { return float64(rows[i].EncodeNS) }),
			series("conflicts", "count", labels, func(i int) float64 { return float64(rows[i].Conflicts) }),
			series("probes", "count", labels, func(i int) float64 { return float64(rows[i].Probes) }),
			series("clauses", "count", labels, func(i int) float64 { return float64(rows[i].Clauses) }),
			series("vars", "count", labels, func(i int) float64 { return float64(rows[i].Vars) }),
		},
	}
}
