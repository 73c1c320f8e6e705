package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings, shared by the parent and the workload
// child process.
type config struct {
	workload string
	seed     int64
	trace    bool
	smoke    bool
}

// seconds is the measured time of one run.
func (c config) seconds() float64 {
	if c.smoke {
		return smokeSeconds
	}
	return measuredSeconds
}

// prepared is a workload after set-up: either the fixed job set of one
// closed-loop pass (ops) or an open-loop measure function.
type prepared struct {
	ops     []op
	measure func(budget time.Duration, rng *rand.Rand, tr *tracer, t *tally)
	check   func(t *tally) // correctness checks and counters outside the timed phase
	close   func()
	// passLatency makes the latency metrics time whole passes instead
	// of single operations.
	passLatency bool
}

type workload struct {
	name  string
	setup func(cfg config) (*prepared, error)
}

// workloads, in run order. Why each exists is recorded in BENCHMARK.json
// and README.md.
var workloads = []workload{
	{"refute-table2", setupRefute},
	{"route-flow", setupFlow},
	{"scale-minwidth", setupScale},
	{"serve-openloop", setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times set-up runs; setup_s is the median and the
// last set-up is measured.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp records where and how a run was made.
type stamp struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Revision   string    `json:"vcs_revision"`
	Modified   bool      `json:"vcs_modified"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Smoke      bool      `json:"smoke,omitempty"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
}

func newStamp(cfg config) stamp {
	s := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds(),
		Trace:      cfg.trace,
		Smoke:      cfg.smoke,
		Start:      time.Now(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

// recordSchema names the run record format written by -out and read by
// -compare.
const recordSchema = "fpgasat-bench/run/v1"

// record is one workload run: the child's output and the -out file.
type record struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Invalid   []string          `json:"invalid,omitempty"`
	Passes    int               `json:"passes"`
	Samples   int               `json:"samples"` // operations or passes behind the latency metrics
	TailPct   float64           `json:"tail_pct,omitempty"`
	TailMS    float64           `json:"tail_ms,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets up and measures one workload in this process. Set-up
// runs setupReps times; the measured phase runs for cfg.seconds(). An
// untraced run reports the end-to-end metrics. A traced run first
// measures half the time untraced, which gives the operation timings,
// then half traced, and reports the per-layer metrics.
func runWorkload(cfg config, log io.Writer) (*record, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := &record{Schema: recordSchema, Workload: w.name, Stamp: newStamp(cfg)}
	var p *prepared
	var setups []float64
	for range setupReps {
		if p != nil && p.close != nil {
			p.close()
		}
		// The last set-up's inputs are garbage before the next set-up
		// starts, and do not add to its peak resident set.
		p = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if p, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if p.close != nil {
		defer p.close()
	}
	measure := p.measure
	if measure == nil {
		measure = func(budget time.Duration, rng *rand.Rand, tr *tracer, t *tally) {
			runPasses(p.ops, budget, rng, tr, t)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	budget := time.Duration(cfg.seconds() * float64(time.Second))
	t := newTally()
	timed := t // the untraced tally behind the operation timings
	var values map[string]float64
	if cfg.trace {
		timed = newTally()
		measure(budget/2, rng, nil, timed)
		tr := newTracer()
		measure(budget/2, rng, tr, t)
		t.attempted += timed.attempted
		t.failed += timed.failed
		t.errors = append(timed.errors, t.errors...)
		t.invalid = append(timed.invalid, t.invalid...)
		t.values["trace.overhead_pct"] = 100 * (median(t.latencies)/median(timed.latencies) - 1)
		acc := tr.account()
		path := filepath.Join(os.TempDir(), "fpgasat-bench-trace-"+w.name+".json")
		if err := tr.write(path, w.name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "%s: %d spans written to %s\n", w.name, len(tr.spans), path)
		values = layerValues(t, acc)
		printAccounting(log, w.name, acc)
	} else {
		measure(budget, rng, nil, t)
		// Read before the correctness checks, whose proof checking would
		// otherwise set the peak.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("peak resident set: %w", err)
		}
		values = map[string]float64{
			"setup_s":     median(setups),
			"peak_rss_mb": float64(ru.Maxrss) / 1024, // KiB on Linux
		}
	}
	if p.check != nil {
		p.check(t)
	}

	rec.Stamp.End = time.Now()
	rec.Attempted, rec.Failed = t.attempted, t.failed
	rec.Correct = t.failed == 0 && t.attempted > 0 && len(t.latencies) > 0
	rec.Errors, rec.Invalid = t.errors, t.invalid
	lat := timed.latencies
	if p.passLatency {
		lat = timed.passMS
	}
	rec.Passes, rec.Samples = timed.passes, len(lat)
	if pct, v, ok := tail(lat); ok {
		rec.TailPct, rec.TailMS = pct, v
	}
	if cfg.trace {
		values["latency_p50_ms"] = median(lat)
		values["latency_p90_ms"] = percentile(lat, 0.9)
		values["throughput_per_s"] = timed.throughput
	}
	rec.Metrics = map[string]metric{}
	for _, d := range catalog(cfg.trace) {
		if v, ok := values[d.Name]; ok {
			rec.Metrics[d.Name] = metric{v, d.Unit}
		}
	}
	return rec, nil
}

// layers are the layer names spans are attributed to.
var layers = []string{"bench", "fpga", "core", "sat", "search", "serve"}

// layerValues turns a traced phase's tally into the per-layer metrics:
// a value measured once, else the median of a per-call timing, else a
// count per pass.
func layerValues(t *tally, acc accounting) map[string]float64 {
	solveTiming := "sat.solve_ms"
	if len(t.samples[solveTiming]) == 0 {
		solveTiming = "search.probe_ms"
	}
	derived := map[string]float64{
		"core.clauses_per_s":    t.rate("core.clauses", "core.encode_ms"),
		"sat.props_per_s":       t.rate("sat.propagations", solveTiming),
		"sat.conflicts_per_s":   t.rate("sat.conflicts", solveTiming),
		"trace.unaccounted_pct": acc.selfPct(opSpan),
	}
	for _, l := range layers {
		derived[l+".self_pct"] = acc.selfPct(l)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		v, ok := t.values[d.Name]
		if !ok {
			v, ok = derived[d.Name]
		}
		if !ok {
			if s := t.samples[d.Name]; len(s) > 0 {
				v, ok = median(s), true
			}
		}
		if !ok {
			v = t.perPass(d.Name)
		}
		out[d.Name] = v
	}
	return out
}

// printAccounting prints the traced phase's self-time split: each
// layer's share of all operation time, and the unaccounted remainder.
func printAccounting(w io.Writer, name string, acc accounting) {
	fmt.Fprintf(w, "%s self time over %.1f ms of operations:\n", name, float64(acc.opNS)/1e6)
	names := make([]string, 0, len(acc.selfNS))
	for l := range acc.selfNS {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		label := l
		if l == opSpan {
			label = "unaccounted"
		}
		fmt.Fprintf(w, "  %-12s %10.1f ms %6.2f%%\n", label, float64(acc.selfNS[l])/1e6, acc.selfPct(l))
	}
}
