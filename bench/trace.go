package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the index of the enclosing
// span (-1 for a root); Job groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int64  `json:"job"`
}

// opSpan names the root span of one operation (a proof, a flow, a width
// search, a serve job). Its self time is the part of the operation no
// layer span covers: the unaccounted column.
const opSpan = "op"

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning -1.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id for end. A child span
// inherits its parent's job id.
func (t *tracer) begin(name string, parent int, job int64) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.record(name, parent, job, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere (HTTP
// timings, intervals reported by the program).
func (t *tracer) record(name string, parent int, job int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	sp := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Job: job}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		sp.Job = t.spans[parent].Job
	}
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// layerOf maps a span name to its layer: the prefix before the first
// dot ("sat.solve" -> "sat").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// accounting is the self-time split of all operation spans: per layer,
// the time its spans ran minus the part their child spans cover. The op
// layer's self time is the unaccounted remainder.
type accounting struct {
	opNS   int64
	selfNS map[string]int64
}

func (t *tracer) account() accounting {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	inOp := make([]bool, len(t.spans))
	acc := accounting{selfNS: map[string]int64{}}
	for i, sp := range t.spans {
		// Parents are always recorded before their children.
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
			inOp[i] = inOp[sp.Parent]
		} else if sp.Name == opSpan {
			inOp[i] = true
			acc.opNS += sp.End - sp.Start
		}
	}
	for i, sp := range t.spans {
		if inOp[i] {
			acc.selfNS[layerOf(sp.Name)] += sp.End - sp.Start - covered(sp, t.spans, children[i])
		}
	}
	return acc
}

// covered returns how much of sp's interval the union of its children's
// intervals covers.
func covered(sp span, spans []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, sp.Start), min(spans[k].End, sp.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// selfPct returns a layer's self time as a percentage of all operation
// time.
func (a accounting) selfPct(layer string) float64 {
	if a.opNS == 0 {
		return 0
	}
	return 100 * float64(a.selfNS[layer]) / float64(a.opNS)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
