package main

import (
	"math"
	"sort"
)

// metricDef is one catalog entry. The catalog must match BENCHMARK.json
// at the repository root exactly (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening as a share of the parent median
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. Only metrics that repeat within 10%
// from run to run on the reference host are here, each with a bound set
// from its measured spread; setup_s is the exception the output format
// requires, with the largest bound (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics of a traced run. The first three are the
// operation timings, from its untraced half: wall times that the host's
// drifting speed moves by more than 10% from run to run, so they carry
// no bound. What one operation is depends on the workload (see
// README.md). The rest are single-layer metrics: counts are per pass
// (one pass of the workload's fixed job set, or one serve rate ladder);
// timings named *_ms are medians per call.
var perLayer = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p90_ms", "ms", "lower", 0},
	{"throughput_per_s", "1/s", "higher", 0},
	{"fpga.netlist_ms", "ms", "lower", 0},
	{"fpga.route_ms", "ms", "lower", 0},
	{"fpga.conflict_ms", "ms", "lower", 0},
	{"fpga.total_ms", "ms", "lower", 0},
	{"fpga.vertices", "count", "lower", 0},
	{"fpga.edges", "count", "lower", 0},
	{"graph.gen_ms", "ms", "lower", 0},
	{"graph.bytes", "B", "lower", 0},
	{"core.encode_ms", "ms", "lower", 0},
	{"core.clauses", "count", "lower", 0},
	{"core.vars", "count", "lower", 0},
	{"core.clauses_per_s", "1/s", "higher", 0},
	{"core.verify_ms", "ms", "lower", 0},
	{"sat.solve_ms", "ms", "lower", 0},
	{"sat.conflicts", "count", "lower", 0},
	{"sat.propagations", "count", "lower", 0},
	{"sat.decisions", "count", "lower", 0},
	{"sat.restarts", "count", "lower", 0},
	{"sat.learnt", "count", "lower", 0},
	{"sat.removed", "count", "lower", 0},
	{"sat.props_per_s", "1/s", "higher", 0},
	{"sat.conflicts_per_s", "1/s", "higher", 0},
	{"sat.pool_reuse_ratio", "ratio", "higher", 0},
	{"sat.arena_cap_words", "words", "lower", 0},
	{"search.encode_ms", "ms", "lower", 0},
	{"search.probe_ms", "ms", "lower", 0},
	{"search.probes", "count", "lower", 0},
	{"search.conflicts", "count", "lower", 0},
	{"serve.submit_p50_ms", "ms", "lower", 0},
	{"serve.submit_p90_ms", "ms", "lower", 0},
	{"serve.lookup_p50_ms", "ms", "lower", 0},
	{"serve.queue_p50_ms", "ms", "lower", 0},
	{"serve.queue_p90_ms", "ms", "lower", 0},
	{"serve.solve_p50_ms", "ms", "lower", 0},
	{"serve.fsync_mean_ms", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.timed_out", "count", "lower", 0},
	{"serve.backlog_end", "count", "lower", 0},
	{"serve.gen_lag_p95_ms", "ms", "lower", 0},
	{"serve.scrape_ms", "ms", "lower", 0},
	{"serve.max_rate_ok", "jobs/s", "higher", 0},
	{"serve.invalid_steps", "count", "lower", 0},
	{"portfolio.lane_attempts", "count", "lower", 0},
	{"share.exported", "count", "lower", 0},
	{"share.imported", "count", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_count", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"bench.self_pct", "%", "lower", 0},
	{"fpga.self_pct", "%", "lower", 0},
	{"core.self_pct", "%", "lower", 0},
	{"sat.self_pct", "%", "lower", 0},
	{"search.self_pct", "%", "lower", 0},
	{"serve.self_pct", "%", "lower", 0},
	{"trace.unaccounted_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func catalog(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail applies the reporting rule for tail latencies: the highest
// percentile with at least ten samples beyond it. With n samples that is
// the (n-10)-th smallest value, at percentile 100*(n-10)/n. Below 11
// samples no tail is reported (ok=false).
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted(xs)[n-11], true
}

// quartiles returns the first quartile, median and third quartile by
// linear interpolation between order statistics (the "exclusive" method
// of Python's statistics.quantiles, which the acceptance check uses).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Verdicts of the compare rule.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the least number of parent/change pairs that may support
// an improvement claim.
const minPairs = 10

// verdict classifies one (workload, metric) from the parent's runs a and
// the change's runs b, paired in run order:
//   - improved: at least minPairs pairs, the change wins at least 9/10
//     of them (ties count for neither), and the medians differ by more
//     than the parent's interquartile range;
//   - unresolved: the run-to-run spread of either side, as a share of its
//     median, is wider than the bound, unless every run of the change
//     reads better than every run of the parent;
//   - regressed: with a bound, the change's median is worse than the
//     parent's by more than the bound; without one (per-layer metrics),
//     the improvement rule holds in the worse direction;
//   - unchanged: otherwise.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	sign := direction(better)
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	iqr := a3 - a1
	pairs := min(len(a), len(b))
	wins, losses := pairWins(a, b, better)
	gap := sign * (mb - ma) // positive when the change is better
	if pairs >= minPairs && wins*10 >= 9*pairs && gap > iqr {
		return improved
	}
	if bound > 0 {
		spread := math.Max(relSpread(a1, ma, a3), relSpread(b1, mb, b3))
		if spread > bound {
			if allBetter(a, b, sign) {
				return unchanged
			}
			return unresolved
		}
		if ma != 0 && -gap/math.Abs(ma) > bound {
			return regressed
		}
		return unchanged
	}
	if pairs >= minPairs && losses*10 >= 9*pairs && -gap > iqr {
		return regressed
	}
	return unchanged
}

// direction is +1 when higher values are better and -1 when lower ones
// are.
func direction(better string) float64 {
	if better == "lower" {
		return -1
	}
	return 1
}

// pairWins counts the pairs (a[i], b[i]) in which b is better and in
// which it is worse; ties count for neither.
func pairWins(a, b []float64, better string) (wins, losses int) {
	sign := direction(better)
	for i := range min(len(a), len(b)) {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses
}

func relSpread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// allBetter reports whether every value of b is better than every value
// of a in the direction sign.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}
