package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// tally accumulates what one measured phase observed: per-operation
// latencies (the end-to-end sample), per-call layer timings, counts, and
// the correctness ledger.
type tally struct {
	latencies []float64            // ms per operation
	passMS    []float64            // ms per closed-loop pass
	samples   map[string][]float64 // ms per layer call, by metric name
	sums      map[string]float64   // counts, by metric name
	values    map[string]float64   // metrics measured once, by name
	passes    int
	// throughput is operations completed per second: over all passes, or
	// over the serve burst.
	throughput float64
	attempted  int
	failed     int
	errors     []string
	invalid    []string // serve steps whose load the generator, not the server, set
}

func newTally() *tally {
	return &tally{samples: map[string][]float64{}, sums: map[string]float64{}, values: map[string]float64{}}
}

func (t *tally) sample(name string, d time.Duration) {
	t.samples[name] = append(t.samples[name], ms(d))
}

func (t *tally) add(name string, v float64) { t.sums[name] += v }

// fail counts a failed operation and keeps the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errors) < 8 {
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	}
}

// perPass divides a count by the number of passes measured.
func (t *tally) perPass(name string) float64 {
	if t.passes == 0 {
		return 0
	}
	return t.sums[name] / float64(t.passes)
}

// rate divides a count by the total of a timing sample, in 1/s.
func (t *tally) rate(count, timing string) float64 {
	total := 0.0
	for _, v := range t.samples[timing] {
		total += v
	}
	if total == 0 {
		return 0
	}
	return t.sums[count] / (total / 1000)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// op is one operation of a closed-loop workload. run executes it with
// parent as the id of its op span and records into t; a wrong or
// unverifiable result is reported as an error.
type op struct {
	name string
	run  func(tr *tracer, parent int, t *tally) error
}

// runPasses runs closed-loop passes over ops, one client, each pass in
// an order drawn from rng, until the time budget would be exceeded by
// another pass of the last pass's length (at least one pass runs).
// Every operation starts on a collected heap whose free pages are back
// with the operating system, so one operation's garbage is not charged
// to the next and the peak resident set does not depend on where
// collections happen to fall. (A collection alone leaves freed pages
// resident; with it, refute-table2's peak varied 0.08 from seed to
// seed, against 0.03 with the pages returned.)
func runPasses(ops []op, budget time.Duration, rng *rand.Rand, tr *tracer, t *tally) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var job int64
	for {
		passStart := time.Now()
		for _, i := range rng.Perm(len(ops)) {
			o := ops[i]
			debug.FreeOSMemory()
			job++
			id := tr.begin(opSpan, -1, job)
			t0 := time.Now()
			err := o.run(tr, id, t)
			d := time.Since(t0)
			tr.end(id)
			t.attempted++
			t.latencies = append(t.latencies, ms(d))
			if err != nil {
				t.fail("%s: %v", o.name, err)
			}
		}
		t.passes++
		last := time.Since(passStart)
		t.passMS = append(t.passMS, ms(last))
		if time.Since(start)+last > budget {
			break
		}
	}
	t.throughput = float64(len(t.latencies)) / time.Since(start).Seconds()
	addRuntime(t, &ms0)
}

// addRuntime records the Go runtime's allocation and GC work since ms0.
func addRuntime(t *tally, ms0 *runtime.MemStats) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	t.add("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	t.add("go.gc_count", float64(ms1.NumGC-ms0.NumGC))
	t.add("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
}
