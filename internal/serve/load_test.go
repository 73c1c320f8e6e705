package serve

// End-to-end load test: a fleet of concurrent HTTP clients drives the
// daemon over real MCNC benchmark instances, mixing synchronous and
// asynchronous submissions, routable and provably-unroutable widths,
// with paranoid verification on every job. The assertions are the
// service contract: zero dropped results, every answer matching the
// calibrated ground truth, and a /metrics snapshot that accounts for
// every job.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
)

// loadClients is the number of concurrent clients; the acceptance bar
// is at least 8.
const loadClients = 8

// submitWithRetry POSTs a solve request, retrying on 429 backpressure
// until the queue accepts it. Returns the final status and body.
func submitWithRetry(t *testing.T, ts *httptest.Server, req SolveRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, raw
		}
		if attempt > 10_000 {
			t.Fatalf("queue still full after %d attempts", attempt)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// maxShedResubmits bounds how often a client resubmits one request
// whose job the server shed at dequeue.
const maxShedResubmits = 10

// submitUntilServed submits req through submitWithRetry and, for an
// asynchronous request, polls the job until it is done. When the server
// shed the job at dequeue (a synchronous 503 whose view has Shed set,
// or a polled view with Shed set), it submits req again, at most
// maxShedResubmits times, and counts each resubmit in resubmits. It
// returns the last status code and body, and the job's final view when
// the server answered with a job.
func submitUntilServed(t *testing.T, ts *httptest.Server, req SolveRequest, resubmits *atomic.Int64) (int, []byte, JobView) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		code, raw := submitWithRetry(t, ts, req)
		served := req.Wait && code == http.StatusOK || !req.Wait && code == http.StatusAccepted
		shed := req.Wait && code == http.StatusServiceUnavailable
		if !served && !shed {
			return code, raw, JobView{}
		}
		v := decodeView(t, raw)
		if !req.Wait {
			v = pollUntilDone(t, ts, v.ID)
		}
		if !v.Shed || attempt == maxShedResubmits {
			return code, raw, v
		}
		resubmits.Add(1)
	}
}

func pollUntilDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("polling %s: status %d err %v", id, resp.StatusCode, err)
		}
		v := decodeView(t, raw)
		if v.State == StateDone {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLoadConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	// Small queues on purpose: with 8 clients and 3 workers the 429
	// backpressure path is part of what this test exercises.
	s, ts := newHTTPServer(t, Options{
		Shards: []ShardConfig{
			{Name: "small", MaxVertices: 1500, Workers: 2, QueueDepth: 4},
			{Name: "large", MaxVertices: 0, Workers: 1, QueueDepth: 4},
		},
		DefaultDeadline: 5 * time.Minute,
	})

	// Calibrated instances with cheap solves: the routable sides land
	// in ~50-120ms each; too_large's width-6 refutation verifies (DRAT
	// replay included) in under two seconds. Heavier refutations like
	// alu2's belong in the benchmark suite, not a load test.
	satInstances := []string{"too_large", "alu2", "C880", "apex7"}

	type outcome struct {
		client int
		job    string
		view   JobView
		want   string
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []outcome
		// resubmits counts the jobs shed at the sojourn target and
		// submitted again; on a slow host (the race detector, a loaded
		// machine) queued jobs can outstay the 30 s target.
		resubmits atomic.Int64
	)
	record := func(o outcome) {
		mu.Lock()
		results = append(results, o)
		mu.Unlock()
	}

	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()

			// 1. Synchronous routable solve at the calibrated width; odd
			// clients race the paper's 3-strategy portfolio. (Portfolio
			// refutations under Verify are avoided here: every lane that
			// independently derives Unsat replays its own DRAT proof, and
			// the losing encodings' proofs can take orders of magnitude
			// longer than the winner's answer.)
			sat := satInstances[c%len(satInstances)]
			code, raw, v := submitUntilServed(t, ts, SolveRequest{
				Instance: sat, Portfolio: c%2 == 1,
				Verify: true, Wait: true, WantColors: true,
			}, &resubmits)
			if code != http.StatusOK {
				t.Errorf("client %d: sat %s: status %d body %s", c, sat, code, raw)
				return
			}
			record(outcome{c, sat, v, AnswerRoutable})

			// 2. Synchronous refutation at the provably-unroutable width.
			inst, err := mcnc.ByName("too_large")
			if err != nil {
				t.Error(err)
				return
			}
			code, raw, v = submitUntilServed(t, ts, SolveRequest{
				Instance: "too_large", Width: inst.UnroutableW(),
				Verify: true, Wait: true,
			}, &resubmits)
			if code != http.StatusOK {
				t.Errorf("client %d: unsat too_large: status %d body %s", c, code, raw)
				return
			}
			record(outcome{c, "too_large/w-1", v, AnswerUnroutable})

			// 3. Asynchronous submit + poll.
			code, raw, v = submitUntilServed(t, ts, SolveRequest{Instance: "too_large", Verify: true}, &resubmits)
			if code != http.StatusAccepted {
				t.Errorf("client %d: async submit: status %d body %s", c, code, raw)
				return
			}
			record(outcome{c, "too_large/async", v, AnswerRoutable})
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Zero dropped results: every client produced all three outcomes.
	wantJobs := loadClients * 3
	if len(results) != wantJobs {
		t.Fatalf("collected %d results, want %d", len(results), wantJobs)
	}
	for _, o := range results {
		v := o.view
		if v.State != StateDone || v.Answer != o.want || v.TimedOut || v.Error != "" {
			t.Errorf("client %d job %s: got %s/%s (timedout=%v err=%q), want %s",
				o.client, o.job, v.State, v.Answer, v.TimedOut, v.Error, o.want)
		}
		if o.want == AnswerRoutable && v.Winner == "" {
			t.Errorf("client %d job %s: routable answer with no winning strategy", o.client, o.job)
		}
	}

	// The metrics snapshot must account for every job and expose the
	// operational gauges: queue depth, shard utilization, pool hit rate.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A shed job is submitted and completed without a solve, so each
	// resubmit adds one to both counters and none to the solve timer.
	shed := resubmits.Load()
	if shed > 0 {
		t.Logf("%d shed jobs resubmitted", shed)
	}
	if got := snap.Counters[MetricJobsCompleted]; got != int64(wantJobs)+shed {
		t.Errorf("%s = %d, want %d (%d jobs + %d resubmits)", MetricJobsCompleted, got, int64(wantJobs)+shed, wantJobs, shed)
	}
	for _, zero := range []string{MetricJobsTimeout, MetricJobsFailed} {
		if got := snap.Counters[zero]; got != 0 {
			t.Errorf("%s = %d, want 0", zero, got)
		}
	}
	if got := snap.Counters[MetricJobsSubmitted]; got != int64(wantJobs)+shed {
		t.Errorf("%s = %d, want %d (%d jobs + %d resubmits)", MetricJobsSubmitted, got, int64(wantJobs)+shed, wantJobs, shed)
	}
	if got := snap.Counters[MetricShedSojourn]; got != shed {
		t.Errorf("%s = %d, want %d (one per resubmit)", MetricShedSojourn, got, shed)
	}
	// Paranoid verification ran on both answer polarities.
	if snap.Counters[portfolio.MetricVerifySat] == 0 {
		t.Errorf("%s = 0: Sat answers were not verified", portfolio.MetricVerifySat)
	}
	if snap.Counters[portfolio.MetricVerifyUnsat] == 0 {
		t.Errorf("%s = 0: Unsat answers were not replayed", portfolio.MetricVerifyUnsat)
	}
	var gets, reuses int64
	for _, sh := range []string{"small", "large"} {
		for _, g := range []string{MetricQueueDepth, MetricQueueCap, MetricWorkersBusy, MetricWorkers} {
			if _, ok := snap.Gauges[g+"."+sh]; !ok {
				t.Errorf("gauge %s.%s missing", g, sh)
			}
		}
		gets += snap.Gauges[MetricPoolGets+"."+sh]
		reuses += snap.Gauges[MetricPoolReuses+"."+sh]
	}
	// Each job takes at least one solver from its shard pool, and with
	// 24 jobs funnelled through 3 workers the pools must be recycling.
	if gets < int64(wantJobs) {
		t.Errorf("pool gets = %d, want >= %d", gets, wantJobs)
	}
	if reuses == 0 {
		t.Error("pool reuses = 0: shard pools are not recycling solvers")
	}
	if snap.Timers[MetricSolve].Count != int64(wantJobs) {
		t.Errorf("%s count = %d, want %d", MetricSolve, snap.Timers[MetricSolve].Count, wantJobs)
	}

	// The daemon is still healthy after the burst.
	if s.Draining() {
		t.Error("server reports draining after load")
	}
}
