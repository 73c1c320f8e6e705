package experiments

// The unified schema of the committed BENCH_*.json artifacts
// (BENCH_scale.json, BENCH_portfolio.json, BENCH_bandwidth.json). Every
// study serializes as one BenchReport: run metadata (when, which Go,
// which study knobs) plus named series of labeled points, so tooling
// can diff the perf trajectory across PRs without per-study parsers.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// BenchSchema identifies the envelope version in every report.
const BenchSchema = "fpgasat-bench/v1"

// BenchReport is the envelope of a committed benchmark artifact.
type BenchReport struct {
	// Schema is always BenchSchema.
	Schema string `json:"schema"`
	// Bench names the study ("scale", "portfolio", "bandwidth").
	Bench string `json:"bench"`
	// Meta records when and how the study ran.
	Meta BenchMeta `json:"meta"`
	// Series are the study's measurements: one named series per metric,
	// one labeled point per instance / scale factor / encoding.
	Series []BenchSeries `json:"series"`
}

// BenchMeta is the run-metadata block of a report.
type BenchMeta struct {
	// GeneratedAt is the RFC 3339 UTC timestamp of the run.
	GeneratedAt string `json:"generated_at,omitempty"`
	// GoVersion is runtime.Version() of the generating binary.
	GoVersion string `json:"go_version,omitempty"`
	// Params are the study knobs (encoding, lanes, seed, ...) as
	// strings, so the envelope stays study-agnostic.
	Params map[string]string `json:"params,omitempty"`
}

// BenchSeries is one metric measured across the study's subjects.
type BenchSeries struct {
	Name string `json:"name"`
	// Unit documents the value dimension ("ns", "count", "bytes",
	// "ratio", ...).
	Unit   string       `json:"unit,omitempty"`
	Points []BenchPoint `json:"points"`
}

// BenchPoint is one labeled measurement of a series.
type BenchPoint struct {
	// Label identifies the subject: an instance name, a scale factor
	// ("100x"), or an encoding name.
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// newBenchMeta stamps a metadata block for a run happening now.
func newBenchMeta(params map[string]string) BenchMeta {
	return BenchMeta{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Params:      params,
	}
}

// series builds one BenchSeries by projecting a value out of each
// labeled subject.
func series(name, unit string, labels []string, value func(i int) float64) BenchSeries {
	s := BenchSeries{Name: name, Unit: unit}
	for i, l := range labels {
		s.Points = append(s.Points, BenchPoint{Label: l, Value: value(i)})
	}
	return s
}

// WriteJSON emits the report as indented JSON — the exact bytes
// committed as BENCH_<bench>.json.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	if r.Schema == "" {
		r.Schema = BenchSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseBenchReport reads a committed artifact back, rejecting foreign
// schemas so tooling fails loudly on format drift.
func ParseBenchReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("experiments: bench report schema %q, want %q", rep.Schema, BenchSchema)
	}
	return &rep, nil
}
