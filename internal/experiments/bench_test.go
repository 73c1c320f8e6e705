package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/mcnc"
)

// TestCommittedBenchArtifactsShareSchema pins the unified bench schema
// over every committed BENCH_*.json: all parse, all carry the envelope
// version, run metadata and at least one non-empty named series.
func TestCommittedBenchArtifactsShareSchema(t *testing.T) {
	matches, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BENCH_scale.json":     "scale",
		"BENCH_portfolio.json": "portfolio",
		"BENCH_bandwidth.json": "bandwidth",
	}
	seen := map[string]bool{}
	for _, path := range matches {
		name := filepath.Base(path)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ParseBenchReport(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bench, ok := want[name]; ok {
			seen[name] = true
			if rep.Bench != bench {
				t.Errorf("%s: bench %q, want %q", name, rep.Bench, bench)
			}
		}
		if rep.Meta.GeneratedAt == "" || rep.Meta.GoVersion == "" {
			t.Errorf("%s: incomplete run metadata %+v", name, rep.Meta)
		}
		if _, err := time.Parse(time.RFC3339, rep.Meta.GeneratedAt); err != nil {
			t.Errorf("%s: generated_at %q is not RFC 3339", name, rep.Meta.GeneratedAt)
		}
		if len(rep.Series) == 0 {
			t.Errorf("%s: no series", name)
		}
		for _, s := range rep.Series {
			if s.Name == "" || len(s.Points) == 0 {
				t.Errorf("%s: empty series %+v", name, s)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("committed artifact %s is missing", name)
		}
	}
}

// TestBenchReportRoundTrip checks WriteJSON/ParseBenchReport and the
// foreign-schema rejection.
func TestBenchReportRoundTrip(t *testing.T) {
	rep := &BenchReport{
		Bench: "unit",
		Meta:  newBenchMeta(map[string]string{"k": "v"}),
		Series: []BenchSeries{
			series("m", "count", []string{"a", "b"}, func(i int) float64 { return float64(i) }),
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Bench != "unit" || len(got.Series) != 1 || len(got.Series[0].Points) != 2 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if _, err := ParseBenchReport(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestBandwidthSmoke runs the bandwidth study on its smallest instance
// with the full encoding family and checks the calibration cross-check,
// the Markdown table and the JSON envelope.
func TestBandwidthSmoke(t *testing.T) {
	in, err := mcnc.ByName("term1.x2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBandwidth(BandwidthConfig{Instances: []mcnc.Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(r.Encodings) {
		t.Fatalf("%d rows for %d encodings", len(r.Rows), len(r.Encodings))
	}
	for _, row := range r.Rows {
		if row.MinWidth != in.RoutableW {
			t.Errorf("%s/%s: span %d, want %d", row.Instance, row.Encoding, row.MinWidth, in.RoutableW)
		}
		if row.Clauses <= 0 || row.Vars <= 0 || row.Probes < 1 {
			t.Errorf("%s/%s: degenerate measurement %+v", row.Instance, row.Encoding, row)
		}
	}
	md := r.Markdown()
	if !strings.Contains(md, "term1.x2") || !strings.Contains(md, "order [s]") {
		t.Fatalf("markdown lacks expected cells:\n%s", md)
	}
	var buf bytes.Buffer
	if err := r.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ParseBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "bandwidth" {
		t.Fatalf("bench %q, want bandwidth", rep.Bench)
	}
}
