package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/serve"
)

// The serve-openloop rate ladder. The reference rate supplies the
// latencies; every rate is judged against the latency limit for
// serve.max_rate_ok.
var (
	ladder      = []float64{20, 40, 60, 80, 100, 120}
	smokeLadder = []float64{20, 40}
)

const (
	// The ladder ends with a burst: burstBlocks blocks of the mix sent
	// back to back, each as soon as the submit connection has the
	// previous answer. The server is saturated from the first jobs on,
	// whatever the host's speed, so the burst's completions per second
	// are its capacity: the throughput. A -smoke burst sends
	// smokeBurstJobs jobs.
	burstBlocks    = 8
	smokeBurstJobs = 8

	refRate = 40
	// refShare is the part of the measured time the reference step gets;
	// the other steps share the rest equally.
	refShare = 0.5
	// A rate is sustained when its job p90 stays within maxP90MS, no job
	// fails, and the backlog at the step's end is at most the worker
	// count.
	maxP90MS = 250
	workers  = 2
	// maxGenLagMS is the p95 send lag beyond which the generator, not the
	// server, set the load, and the step is marked invalid.
	maxGenLagMS = 5
)

// jobKind is one request of the serve mix with its expected answer.
type jobKind struct {
	name  string
	count int    // jobs of this kind in every block of the mix
	async []byte // JSON SolveRequest
	sync  []byte // the same request with "wait": true, for warm-up
	want  string
	g     *graph.Graph // routable kinds: the graph the colors must fit
	w     int
}

// serveKinds builds the request mix, per block of 40 jobs: 60%
// routable jobs by instance name (the server's instance cache hits), 15%
// inline DIMACS graphs (parsed on the submit path), 15% W-1 refutations
// (half of them with two sharing lanes) and 10% bandwidth jobs under the
// order encoding. One instance per group keeps each percentile inside a
// group of like jobs: the median among the tseng jobs, the p90 among the
// alu2 refutations. On a boundary between groups of different cost, a
// percentile jumps between them from run to run.
func serveKinds() ([]jobKind, error) {
	type spec struct {
		instance string
		count    int
		inline   bool
		refute   bool
		share    bool
		strategy string
	}
	specs := []spec{
		{instance: "tseng", count: 24},
		{instance: "tseng", count: 3, inline: true},
		{instance: "9symml", count: 3, inline: true},
		{instance: "alu2", count: 3, refute: true},
		{instance: "alu2", count: 3, refute: true, share: true},
		{instance: "9symml.x2", count: 2, strategy: "order"},
		{instance: "tseng.x2", count: 2, strategy: "order"},
	}
	graphs := map[string]*graph.Graph{}
	var kinds []jobKind
	for _, sp := range specs {
		in, err := mcnc.ByName(sp.instance)
		if err != nil {
			return nil, err
		}
		g := graphs[in.Name]
		if g == nil {
			if _, g, err = in.Build(); err != nil {
				return nil, err
			}
			graphs[in.Name] = g
		}
		req := serve.SolveRequest{Strategy: sp.strategy, Share: sp.share}
		k := jobKind{name: in.Name, count: sp.count, want: serve.AnswerRoutable, g: g, w: in.RoutableW}
		switch {
		case sp.refute:
			req.Instance, req.Width = in.Name, in.UnroutableW()
			k.want, k.g = serve.AnswerUnroutable, nil
			k.name += " W-1"
			if sp.share {
				req.Lanes = 2
				k.name += " share"
			}
		case sp.inline:
			var buf bytes.Buffer
			if err := graph.WriteDIMACS(&buf, g); err != nil {
				return nil, err
			}
			req.Graph, req.Width, req.WantColors = buf.String(), in.RoutableW, true
			k.name += " inline"
		default:
			req.Instance, req.WantColors = in.Name, true
		}
		if k.async, err = json.Marshal(req); err != nil {
			return nil, err
		}
		req.Wait = true
		if k.sync, err = json.Marshal(req); err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// check verifies a finished job's view against the kind's expectation.
func (k *jobKind) check(v serve.JobView) error {
	switch {
	case v.State != serve.StateDone:
		return fmt.Errorf("%s: state %s", k.name, v.State)
	case v.Shed || v.TimedOut:
		return fmt.Errorf("%s: shed=%v timed_out=%v: %s", k.name, v.Shed, v.TimedOut, v.Error)
	case v.Answer != k.want:
		return fmt.Errorf("%s: answer %s, want %s (%s)", k.name, v.Answer, k.want, v.Error)
	case k.g != nil:
		if err := coloring.Verify(k.g, v.Colors, k.w); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return nil
}

// serveRig is an in-process server on a loopback listener with its
// journal on, and the two client connections of the load generator.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	submit *http.Client
	read   *http.Client
	dir    string
	kinds  []jobKind
	smoke  bool
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// setupServe starts the server (one 2-worker shard, journal fsync in a
// temporary directory) and warms it up with one synchronous job of every
// kind, which also fills its instance cache.
func setupServe(cfg config) (*prepared, error) {
	kinds, err := serveKinds()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "fpgasat-bench-journal-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{
		// Deep enough that no step of the ladder is refused with 429: an
		// overloaded step shows as latency and backlog instead.
		Shards:     []serve.ShardConfig{{Name: "small", Workers: workers, QueueDepth: 1024}},
		JournalDir: dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		submit: oneConnClient(),
		read:   oneConnClient(),
		dir:    dir,
		kinds:  kinds,
		smoke:  cfg.smoke,
	}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it
	}()
	for i := range r.kinds {
		k := &r.kinds[i]
		v, code, err := r.call(r.submit, http.MethodPost, "/v1/solve", k.sync)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = k.check(v)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s: %w", k.name, err)
		}
	}
	return &prepared{measure: r.measure, close: r.close}, nil
}

func (r *serveRig) close() {
	r.hs.Close()
	<-r.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.srv.Drain(ctx) // every job has finished by now; a timeout only cancels leftovers
	r.submit.CloseIdleConnections()
	r.read.CloseIdleConnections()
	os.RemoveAll(r.dir)
}

// call sends one request and decodes a job view from the response.
func (r *serveRig) call(c *http.Client, method, path string, body []byte) (serve.JobView, int, error) {
	var v serve.JobView
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	// Read to EOF so the connection is reused.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return v, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return v, resp.StatusCode, json.Unmarshal(data, &v)
}

// jobRec is one scheduled job as the load generator saw it.
type jobRec struct {
	kind                    *jobKind
	sched, sent, resp, done time.Time
	// free is when the job could first be sent: its scheduled time, or
	// later when the single submit connection was still waiting for the
	// previous response. That wait is the server's and counts in the
	// job's latency; sent-free is the generator's own lag.
	free time.Time
	id   string
	err  error
	// Filled by the reader.
	view               serve.JobView
	lookStart, lookEnd time.Time
	checked            *sync.WaitGroup
}

// measure runs the rate ladder once, then the burst. Each ladder step
// sends a fixed number of jobs, about rate x step length, from one
// submit connection at Poisson arrival times; one read connection
// fetches every completed job and scrapes /metrics once a second.
func (r *serveRig) measure(budget time.Duration, rng *rand.Rand, tr *tracer, t *tally) {
	rates := ladder
	if r.smoke {
		rates = smokeLadder
	}
	block := 0
	for _, k := range r.kinds {
		block += k.count
	}
	burstJobs := burstBlocks * block
	if r.smoke {
		burstJobs = smokeBurstJobs
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := r.srv.Scrape()

	readq := make(chan *jobRec)
	scraped := make(chan scrapeLog, 1)
	go func() { scraped <- r.reader(readq, tr) }()

	var job int64
	var lookups []float64
	var backlog, worstLag, laneAttempts, conflicts float64
	maxOK := 0.0
	for _, rate := range slices.Concat(rates, []float64{math.Inf(1)}) {
		burst := math.IsInf(rate, 1)
		n := burstJobs
		if !burst {
			share := (1 - refShare) / float64(len(rates)-1)
			if rate == refRate {
				share = refShare
			}
			// About rate x step length jobs, rounded to whole blocks
			// once the step holds one, so that the mix is exact.
			n = max(1, int(math.Round(rate*budget.Seconds()*share)))
			if n >= block {
				n = block * int(math.Round(float64(n)/float64(block)))
			}
		}
		// As between closed-loop operations: the previous step's garbage
		// and free pages do not count in this step's peak resident set.
		debug.FreeOSMemory()
		recs, depth := r.runStep(rate, n, rng, readq)
		var lat, submit, queue, solve, lag []float64
		failed := 0
		var first, last time.Time
		for _, rec := range recs {
			t.attempted++
			lag = append(lag, ms(rec.sent.Sub(rec.free)))
			if rec.err == nil {
				rec.err = rec.kind.check(rec.view)
			}
			if rec.err != nil {
				failed++
				t.fail("rate %g: %v", rate, rec.err)
				continue
			}
			lat = append(lat, ms(rec.done.Sub(rec.sched)))
			submit = append(submit, ms(rec.resp.Sub(rec.sent)))
			queue = append(queue, float64(rec.view.QueuedMS))
			solve = append(solve, float64(rec.view.SolveMS))
			lookups = append(lookups, ms(rec.lookEnd.Sub(rec.lookStart)))
			for _, l := range rec.view.Lanes {
				laneAttempts += float64(l.Attempts)
				conflicts += float64(l.Conflicts)
			}
			if first.IsZero() || rec.sched.Before(first) {
				first = rec.sched
			}
			if rec.done.After(last) {
				last = rec.done
			}
			job++
			r.traceJob(tr, job, rec)
		}
		if burst {
			t.throughput = float64(len(lat)) / last.Sub(first).Seconds()
			fmt.Fprintf(os.Stderr, "serve burst: %4d jobs, %.1f completed per second, failed %d\n", len(recs), t.throughput, failed)
			continue
		}
		backlog = math.Max(backlog, float64(depth))
		lagP95 := percentile(lag, 0.95)
		worstLag = math.Max(worstLag, lagP95)
		if lagP95 > maxGenLagMS {
			t.invalid = append(t.invalid, fmt.Sprintf("rate %g/s: generator lag p95 %.1f ms > %d ms", rate, lagP95, maxGenLagMS))
		}
		p90 := percentile(lat, 0.9)
		if failed == 0 && p90 <= maxP90MS && depth <= workers {
			maxOK = math.Max(maxOK, rate)
		}
		fmt.Fprintf(os.Stderr, "serve step %5.0f jobs/s: %4d jobs, p50 %7.2f ms, p90 %7.2f ms, backlog %d, failed %d, gen lag p95 %.2f ms\n",
			rate, len(recs), median(lat), p90, depth, failed, lagP95)
		if rate == refRate {
			t.latencies = lat
			t.samples["serve.submit_p50_ms"] = submit
			t.values["serve.submit_p90_ms"] = percentile(submit, 0.9)
			t.samples["serve.queue_p50_ms"] = queue
			t.values["serve.queue_p90_ms"] = percentile(queue, 0.9)
			t.samples["serve.solve_p50_ms"] = solve
		}
	}
	close(readq)
	sl := <-scraped
	t.samples["serve.scrape_ms"] = sl.ms
	for _, err := range sl.errs {
		t.attempted++
		t.fail("scrape: %v", err)
	}
	t.samples["serve.lookup_p50_ms"] = lookups
	t.values["serve.gen_lag_p95_ms"] = worstLag
	t.values["serve.backlog_end"] = backlog
	t.values["serve.max_rate_ok"] = maxOK
	t.values["serve.invalid_steps"] = float64(len(t.invalid))
	t.passes++
	t.add("portfolio.lane_attempts", laneAttempts)
	t.add("sat.conflicts", conflicts)
	after := r.srv.Scrape()
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	t.add("serve.rejected", delta(serve.MetricJobsRejected))
	t.add("serve.shed", delta(serve.MetricShedSojourn)+delta(serve.MetricShedDeadline))
	t.add("serve.timed_out", delta(serve.MetricJobsTimeout))
	t.add("share.exported", delta("portfolio.share.exported"))
	t.add("share.imported", delta("portfolio.share.imported"))
	if fs := after.Timers[serve.MetricJournalFsync]; fs.Count > 0 {
		t.values["serve.fsync_mean_ms"] = ms(fs.Mean)
	}
	addRuntime(t, &ms0)
}

// runStep sends one step's n jobs at the given rate (all at once for an
// infinite rate) and waits until the reader has fetched every accepted
// one. It returns the records and the queue depth when the step's
// schedule ended.
func (r *serveRig) runStep(rate float64, n int, rng *rand.Rand, readq chan<- *jobRec) ([]*jobRec, int64) {
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	// Exponential gaps scaled to the step length: arrivals are Poisson
	// shaped, while the job count and step length do not depend on the
	// seed.
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	kinds := r.mix(n, rng)
	recs := make([]*jobRec, n)
	start := time.Now()
	at := 0.0
	for i := range recs {
		at += gaps[i]
		recs[i] = &jobRec{
			kind:  kinds[i],
			sched: start.Add(time.Duration(at / total * float64(dur))),
		}
	}
	var checked sync.WaitGroup
	var free time.Time // when the submit connection's previous response arrived
	for _, rec := range recs {
		time.Sleep(time.Until(rec.sched))
		rec.sent = time.Now()
		rec.free = maxTime(rec.sched, free)
		var v serve.JobView
		var code int
		v, code, rec.err = r.call(r.submit, http.MethodPost, "/v1/solve", rec.kind.async)
		rec.resp = time.Now()
		free = rec.resp
		if rec.err == nil && code != http.StatusAccepted {
			rec.err = fmt.Errorf("submit %s: status %d", rec.kind.name, code)
		}
		if rec.err != nil {
			continue
		}
		rec.id = v.ID
		job, ok := r.srv.Lookup(v.ID)
		if !ok {
			rec.err = fmt.Errorf("submit %s: job %s not found", rec.kind.name, v.ID)
			continue
		}
		rec.checked = &checked
		checked.Add(1)
		go func() {
			<-job.Done()
			rec.done = time.Now()
			readq <- rec
		}()
	}
	time.Sleep(time.Until(start.Add(dur)))
	depth := r.srv.Scrape().Gauges[serve.MetricQueueDepth+".small"]
	checked.Wait()
	return recs, depth
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// mix returns n job kinds: consecutive blocks, each holding every kind
// count times in seeded random order. The mix of a
// step is then exact whatever the seed, and slow refutations cannot
// cluster beyond one block.
func (r *serveRig) mix(n int, rng *rand.Rand) []*jobKind {
	var block []*jobKind
	for i := range r.kinds {
		for range r.kinds[i].count {
			block = append(block, &r.kinds[i])
		}
	}
	out := make([]*jobKind, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// scrapeLog is what the reader's /metrics scrapes observed.
type scrapeLog struct {
	ms   []float64
	errs []error
}

// reader is the read connection: it fetches every completed job's view
// and scrapes /metrics once a second until readq is closed.
func (r *serveRig) reader(readq <-chan *jobRec, tr *tracer) scrapeLog {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var sl scrapeLog
	for {
		select {
		case rec, ok := <-readq:
			if !ok {
				return sl
			}
			rec.lookStart = time.Now()
			rec.view, _, rec.err = r.call(r.read, http.MethodGet, "/v1/jobs/"+rec.id, nil)
			rec.lookEnd = time.Now()
			rec.checked.Done()
		case <-tick.C:
			t0 := time.Now()
			err := r.scrape()
			tr.record("serve.scrape", -1, 0, t0, time.Now())
			sl.ms = append(sl.ms, ms(time.Since(t0)))
			if err != nil {
				sl.errs = append(sl.errs, err)
			}
		}
	}
}

func (r *serveRig) scrape() error {
	resp, err := r.read.Get(r.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// traceJob records a finished job's spans: the job from its scheduled
// send to Done, split without overlap into the wait for the submit
// connection, the generator's own lag, the POST round trip, and the rest
// of the server's queue wait and solve as its job view reports them.
func (r *serveRig) traceJob(tr *tracer, job int64, rec *jobRec) {
	if tr == nil {
		return
	}
	id := tr.record(opSpan, -1, job, rec.sched, rec.done)
	tr.record("serve.conn_wait", id, 0, rec.sched, rec.free)
	tr.record("bench.gen_lag", id, 0, rec.free, rec.sent)
	tr.record("serve.submit", id, 0, rec.sent, rec.resp)
	queued := rec.view.SubmittedAt.Add(time.Duration(rec.view.QueuedMS) * time.Millisecond)
	queued = minTime(maxTime(queued, rec.resp), rec.done)
	tr.record("serve.queue", id, 0, rec.resp, queued)
	tr.record("serve.solve", id, 0, queued, rec.done)
	tr.record("serve.lookup", -1, job, rec.lookStart, rec.lookEnd)
}
