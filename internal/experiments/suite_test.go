package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
)

func TestCalibrateMeasuresRoutableW(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCalibrate(CalibrateConfig{Instances: []mcnc.Instance{in}, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(r.Rows))
	}
	row := r.Rows[0]
	if !row.Chi.Proved || row.Chi.Chi != in.RoutableW {
		t.Fatalf("term1: chi=%d (proved %v), want %d", row.Chi.Chi, row.Chi.Proved, in.RoutableW)
	}
	if row.UnsatFast.Status != sat.Unsat || row.UnsatSlow.Status != sat.Unsat || row.SatFast.Status != sat.Sat {
		t.Fatalf("term1: timed solves %v/%v/%v, want Unsat/Unsat/Sat",
			row.UnsatFast.Status, row.UnsatSlow.Status, row.SatFast.Status)
	}
	if !strings.Contains(r.Markdown(), "| term1 |") {
		t.Errorf("markdown lacks the term1 row:\n%s", r.Markdown())
	}
}

// TestCalibrateReportsMismatch pins the calibration contract: an
// instance whose registry width is not its measured chi fails the
// study, and the error names it.
func TestCalibrateReportsMismatch(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	in.RoutableW++
	r, err := RunCalibrate(CalibrateConfig{Instances: []mcnc.Instance{in}, Timeout: time.Minute})
	if err == nil {
		t.Fatal("miscalibrated term1 passed calibration")
	}
	if !strings.Contains(err.Error(), "term1") {
		t.Fatalf("error %q does not name the instance", err)
	}
	if r == nil || len(r.Rows) != 1 {
		t.Fatal("the measured row is not returned with the error")
	}
}

func TestExportRoundTrip(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := RunExport(dir, []mcnc.Instance{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0].V != want.N() || r.Rows[0].E != want.M() {
		t.Fatalf("export stats %+v, want V=%d E=%d", r.Rows, want.N(), want.M())
	}
	open := func(ext string) *os.File {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, "term1"+ext))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	g, err := graph.ParseDIMACS(open(".col"))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := fpga.ParseNetlist(open(".net"))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := fpga.ParseRouting(open(".route"), nl)
	if err != nil {
		t.Fatal(err)
	}
	for src, got := range map[string]*graph.Graph{".col": g, ".net + .route": gr.ConflictGraph()} {
		if got.N() != want.N() || got.M() != want.M() {
			t.Errorf("%s: %d vertices, %d edges; Build() has %d, %d", src, got.N(), got.M(), want.N(), want.M())
		}
	}
}

// TestScanSeedRow scans alu2's own seed under a timeout far below its
// ~3 s baseline proof, so the baseline either times out or proves
// W=chi-1 unroutable; either way the row's graph numbers are exact.
func TestScanSeedRow(t *testing.T) {
	in, err := mcnc.ByName("alu2")
	if err != nil {
		t.Fatal(err)
	}
	row, err := ScanSeed(in, in.Gen.Seed, 500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.Class != "alu2" || row.Seed != in.Gen.Seed || row.V != 145 || row.E != 1082 {
		t.Fatalf("row %s seed %d V=%d E=%d, want alu2 seed %d V=145 E=1082",
			row.Class, row.Seed, row.V, row.E, in.Gen.Seed)
	}
	if !row.Chi.Proved || row.Chi.Chi != in.RoutableW || row.Chi.LowerBound != 6 {
		t.Fatalf("chi=%d (proved %v) clq=%d, want chi=%d clq=6",
			row.Chi.Chi, row.Chi.Proved, row.Chi.LowerBound, in.RoutableW)
	}
	for _, tm := range append([]Timing{row.Baseline}, row.Fast...) {
		if tm.Status == sat.Sat {
			t.Fatal("a strategy routed W=chi-1")
		}
	}
	if len(row.Fast) != len(seedScanFast) {
		t.Fatalf("%d fast timings, want %d", len(row.Fast), len(seedScanFast))
	}
	if row.Baseline.Status == sat.Unknown && !row.Challenging() {
		t.Fatal("a timed-out baseline is not marked challenging")
	}
	r := &SeedScanResult{Rows: []SeedRow{row}}
	if !strings.Contains(r.Markdown(), "| alu2 | 102 | 145 | 1082 | 6 | 7 |") {
		t.Errorf("markdown lacks the row:\n%s", r.Markdown())
	}
}
