package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark executable
// when the smoke test's parent process starts it as a workload child.
// Traced runs write their spans to the temporary directory, which is a
// private one for the duration of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "fpgasat-bench-test-")
	if err != nil {
		panic(err)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != measuredSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark measures %d s", b.RunSeconds, measuredSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name      string
		json, cat []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.cat) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalog %d", c.name, len(c.json), len(c.cat))
			continue
		}
		for i := range c.cat {
			if c.json[i] != c.cat[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.json[i], c.cat[i])
			}
		}
	}
}

// TestSmoke runs a tiny size of every workload, untraced and traced,
// through the same parent/child path as a real run, and checks that the
// last output line parses and carries every catalog metric with its
// unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				args := []string{"-smoke", "-workload", w.Name, "-trace", trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line does not parse: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples: reported a tail, want none")
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{{11, 100.0 / 11, 1}, {20, 50, 10}, {100, 90, 90}, {1000, 99, 990}} {
		pct, v, ok := tail(seq(c.n))
		if !ok || math.Abs(pct-c.pct) > 1e-9 || v != c.want {
			t.Errorf("%d samples: got p%g = %g (ok=%v), want p%g = %g", c.n, pct, v, ok, c.pct, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := func(wins int) []float64 {
		b := make([]float64, len(parent))
		for i, a := range parent {
			b[i] = a - 5
			if i >= wins {
				b[i] = a + 1
			}
		}
		return b
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"9/10 wins", parent, faster(9), "lower", 0.1, improved},
		{"8/10 wins", parent, faster(8), "lower", 0.1, unchanged},
		{"9/10 wins, higher is better", parent, faster(9), "higher", 0.1, unchanged},
		{"too few pairs", parent[:5], faster(9)[:5], "lower", 0.1, unchanged},
		{"worse beyond bound", parent, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", 0.1, regressed},
		{"worse within bound", parent, []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, "lower", 0.1, unchanged},
		{"spread wider than bound", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, parent, "lower", 0.1, unresolved},
		{"wide spread, change always better", []float64{200, 300, 250, 220, 280}, []float64{100, 150, 120, 110, 140}, "lower", 0.1, unchanged},
		{"per-layer consistently worse", parent, faster(9), "higher", 0, regressed},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSecondsIsFixed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "route-flow", "-seconds", "5"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("-seconds 5: exit %d, stdout %q; want exit 2 and no output", code, stdout.String())
	}
}

func TestCompareRefusesDifferentSettings(t *testing.T) {
	rec := func(workload string, s stamp) record {
		return record{Workload: workload, Stamp: s, Metrics: map[string]metric{"setup_s": {1, "s"}}}
	}
	base := stamp{Seconds: measuredSeconds, NProc: 2, GOMAXPROCS: 2}
	a := []record{rec("route-flow", base)}
	traced := base
	traced.Trace, traced.Seed = true, 7
	if err := compareRecords(io.Discard, a, []record{rec("route-flow", base), rec("refute-table2", traced)}, ""); err != nil {
		t.Errorf("same settings: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*stamp)
	}{
		{"seconds", func(s *stamp) { s.Seconds = 10 }},
		{"smoke", func(s *stamp) { s.Smoke = true }},
		{"nproc", func(s *stamp) { s.NProc = 4 }},
		{"GOMAXPROCS", func(s *stamp) { s.GOMAXPROCS = 1 }},
	} {
		s := base
		c.edit(&s)
		if err := compareRecords(io.Discard, a, []record{rec("route-flow", s)}, ""); err == nil {
			t.Errorf("different %s: compared, want an error", c.name)
		}
	}
}

func TestAccountingSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: opSpan, Start: 0, End: 100, Parent: -1},
		{Name: "core.encode", Start: 10, End: 30, Parent: 0},
		{Name: "sat.solve", Start: 30, End: 95, Parent: 0},
		{Name: "sat.inner", Start: 40, End: 60, Parent: 2},
		{Name: "serve.lookup", Start: 0, End: 50, Parent: -1}, // outside any operation
	}}
	acc := tr.account()
	want := map[string]int64{opSpan: 15, "core": 20, "sat": 65}
	if acc.opNS != 100 || len(acc.selfNS) != len(want) {
		t.Fatalf("accounting %+v, want op 100 and %v", acc, want)
	}
	for l, ns := range want {
		if acc.selfNS[l] != ns {
			t.Errorf("%s self %d, want %d", l, acc.selfNS[l], ns)
		}
	}
}
