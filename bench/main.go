// Command bench is the repository benchmark. It runs four workloads,
// each in its own child process, and prints every end-to-end metric by
// name and unit (or, with -trace 1, every per-layer metric), checking
// every answer the program gives. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash bench/run.sh                              # all workloads, seed 1
//	bash bench/run.sh -workload route-flow -seed 7
//	bash bench/run.sh -workload scale-minwidth -trace 1
//	bash bench/run.sh -out runs/a ...; bash bench/run.sh -compare runs/a runs/b
//
// See README.md for the workloads, the metric catalog and the rules
// -compare applies.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// childTimeout bounds one workload child process.
const childTimeout = 170 * time.Second

// measuredSeconds is how long one run of a workload measures. It equals
// run_seconds in BENCHMARK.json (a test checks this) and is not a
// setting, so the parent's and the change's runs always measure the
// same time. -smoke runs measure smokeSeconds instead.
const (
	measuredSeconds = 20
	smokeSeconds    = 0.4
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all, in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: job order, serve arrival times and request mix")
	seconds := fs.Int("seconds", measuredSeconds, "measured seconds per workload; fixed, so any other value is refused")
	trace := fs.Int("trace", 0, "1 makes a traced run, which prints per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "directory to store each workload's run record in, for -compare")
	compare := fs.String("compare", "", "directory of the parent's run records; the change's directory follows as an argument")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run tiny sizes of every workload for "+strconv.FormatFloat(smokeSeconds, 'g', -1, 64)+" s (for tests)")
	child := fs.Bool("child", false, "measure one workload in this process (the parent runs each workload this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds != measuredSeconds {
		fmt.Fprintf(stderr, "bench: -seconds is fixed at %d (run_seconds in BENCHMARK.json), got %d\n", measuredSeconds, *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg.trace = *trace == 1
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare DIR_A DIR_B needs the change's directory as its one argument")
			return 2
		}
		return runCompare(*compare, fs.Arg(0), cfg.workload, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(cfg.workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if *child {
		rec, err := runWorkload(cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	return runParent(cfg, names, *out, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runParent runs each workload in a child process and reports. With
// more than one workload, metric names in the last line are prefixed
// with "<workload>/".
func runParent(cfg config, names []string, outDir string, stdout, stderr io.Writer) int {
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		rec, err := runChild(c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			final.Correct = false
			final.Attempted++
			final.Failed++
			continue
		}
		printRecord(stdout, rec)
		if outDir != "" {
			if err := writeRecord(outDir, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, m := range rec.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// childEnv marks a process started by runChild; the test binary uses it
// to act as the benchmark.
const childEnv = "FPGASAT_BENCH_CHILD"

// runChild measures one workload in a child process of this executable,
// so that the peak resident set the child reports covers that workload
// alone.
func runChild(cfg config, stderr io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-trace", trace,
		"-smoke=" + strconv.FormatBool(cfg.smoke)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var rec record
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rec); err != nil {
		return nil, fmt.Errorf("workload output: %w", err)
	}
	return &rec, nil
}

func printRecord(w io.Writer, rec *record) {
	s := rec.Stamp
	fmt.Fprintf(w, "== %s  seed %d  %gs  trace %v  nproc %d  GOMAXPROCS %d  %s  rev %.12s\n",
		rec.Workload, s.Seed, s.Seconds, s.Trace, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Revision)
	fmt.Fprintf(w, "   correct %v  attempted %d  failed %d  passes %d  samples %d", rec.Correct, rec.Attempted, rec.Failed, rec.Passes, rec.Samples)
	if rec.TailMS > 0 {
		fmt.Fprintf(w, "  tail p%.1f %.2f ms", rec.TailPct, rec.TailMS)
	}
	fmt.Fprintln(w)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	for _, e := range rec.Invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", e)
	}
	for _, d := range catalog(s.Trace) {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "   %-24s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if rec.Stamp.Trace {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%s.json", rec.Workload, kind, rec.Stamp.Seed, rec.Stamp.Start.Format("20060102T150405.000"))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// readRecords loads every run record in dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, rec.Schema, recordSchema)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, errors.New(dir + ": no run records")
	}
	return recs, nil
}

// runCompare prints one verdict row per (workload, metric) present on
// both sides, pairing runs in start order. It never combines metrics.
func runCompare(dirA, dirB, only string, stdout, stderr io.Writer) int {
	a, err := readRecords(dirA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readRecords(dirB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := compareRecords(stdout, a, b, only); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// settings are the parts of a run's stamp that two runs must share to
// be compared: the measured time, the size, and the CPUs.
type settings struct {
	Seconds    float64
	Smoke      bool
	NProc      int
	GOMAXPROCS int
}

func (s stamp) settings() settings {
	return settings{s.Seconds, s.Smoke, s.NProc, s.GOMAXPROCS}
}

// compareRecords refuses records made with different settings and
// otherwise prints the verdict rows.
func compareRecords(w io.Writer, a, b []record, only string) error {
	all := append(append([]record(nil), a...), b...)
	for _, r := range all[1:] {
		if got, want := r.Stamp.settings(), all[0].Stamp.settings(); got != want {
			return fmt.Errorf("%s run of %s has settings %+v, %s run of %s has %+v; only runs with the same settings compare",
				r.Workload, r.Stamp.Start.Format(time.RFC3339), got, all[0].Workload, all[0].Stamp.Start.Format(time.RFC3339), want)
		}
	}
	byStart := func(recs []record) {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Stamp.Start.Before(recs[j].Stamp.Start) })
	}
	byStart(a)
	byStart(b)
	series := func(recs []record, wl, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-16s %-24s %-6s %12s %12s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "delta", "spread", "wins", "verdict")
	for _, wl := range workloads {
		if only != "" && wl.name != only {
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			xa, xb := series(a, wl.name, d.Name), series(b, wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			q1, ma, q3 := quartiles(xa)
			_, mb, _ := quartiles(xb)
			delta := 0.0
			if ma != 0 {
				delta = 100 * (mb - ma) / ma
			}
			wins, _ := pairWins(xa, xb, d.Better)
			fmt.Fprintf(w, "%-16s %-24s %-6s %12.4f %12.4f %+7.2f%% %6.1f%% %3d/%-2d  %s\n",
				wl.name, d.Name, d.Unit, ma, mb, delta, 100*relSpread(q1, ma, q3), wins, min(len(xa), len(xb)),
				verdict(xa, xb, d.Better, d.Bound))
		}
	}
	return nil
}
