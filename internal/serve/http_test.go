package serve

// End-to-end tests of the HTTP surface: every endpoint, every error
// status the daemon can return, and the drain behaviour a rolling
// restart relies on. All tests run against httptest servers wrapping
// Server.Handler, so they exercise exactly what cmd/fpgasatd serves.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
)

// newHTTPServer starts an httptest server around a fresh Server and
// registers ordered cleanup: the HTTP listener closes before the
// Server drains.
func newHTTPServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postSolve sends a SolveRequest and returns the status code plus the
// decoded body (a JobView on 2xx/504, an errorBody otherwise).
func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decodeView(t *testing.T, raw []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding job view from %s: %v", raw, err)
	}
	return v
}

func TestHTTPSolveSyncRoutable(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	code, raw := postSolve(t, ts, SolveRequest{
		Graph: triangleCol, Width: 3,
		Wait: true, WantColors: true, Verify: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	v := decodeView(t, raw)
	if v.Answer != AnswerRoutable || v.State != StateDone {
		t.Fatalf("answer %q state %q, want ROUTABLE/done", v.Answer, v.State)
	}
	if len(v.Colors) != 3 {
		t.Fatalf("colors %v, want a 3-vertex assignment", v.Colors)
	}
	if v.Winner == "" || len(v.Lanes) == 0 {
		t.Fatalf("missing winner/lanes in %s", raw)
	}
}

func TestHTTPSolveSyncUnroutable(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 2, Wait: true, Verify: true})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	if v := decodeView(t, raw); v.Answer != AnswerUnroutable {
		t.Fatalf("answer %q, want UNROUTABLE", v.Answer)
	}
}

// TestHTTPInlineGraphVertexCap posts an 18-byte graph that declares
// 2^25 vertices, whose CSR offsets alone would take 128 MiB. The
// daemon must answer 400 without allocating them, and a request
// without a width must fail on the width before the graph is parsed.
// A graph of 2^20 vertices fits MaxSubmitVertices, but at width 3 its
// cells exceed MaxSubmitCells, and a solve would take 2 million
// variables: it too must be refused from the header. No job is
// admitted.
func TestHTTPInlineGraphVertexCap(t *testing.T) {
	s, ts := newHTTPServer(t, Options{})
	const huge, wide = "p edge 33554432 0", "p edge 1048576 0"
	if 1<<20 > MaxSubmitVertices || 3<<20 <= MaxSubmitCells {
		t.Fatal("test premise broken: 2^20 vertices must fit MaxSubmitVertices and not fit MaxSubmitCells at width 3")
	}
	for _, tc := range []struct {
		graph string
		width int
		want  string
	}{{huge, 3, "vertex count"}, {huge, 0, "width"}, {wide, 3, "vertex count"}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, raw := postSolve(t, ts, SolveRequest{Graph: tc.graph, Width: tc.width})
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
			t.Errorf("%q at width %d: status %d, body %s; want a 400 naming the %s", tc.graph, tc.width, code, raw, tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%q at width %d: rejecting the graph allocated %d bytes, want under 1 MiB", tc.graph, tc.width, alloc)
		}
	}
	if got := s.reg.Counter(MetricJobsSubmitted).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricJobsSubmitted, got)
	}
	if n := s.jobs.len(); n != 0 {
		t.Errorf("the job table holds %d jobs, want 0", n)
	}
}

func TestHTTPSolveAsyncPoll(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	code, raw := postSolve(t, ts, SolveRequest{Instance: "too_large", Verify: true})
	if code != http.StatusAccepted {
		t.Fatalf("status %d, body %s", code, raw)
	}
	v := decodeView(t, raw)
	if v.ID == "" || v.State == StateDone {
		t.Fatalf("async submit returned %s", raw)
	}
	deadline := time.Now().Add(60 * time.Second)
	for v.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", v.ID, v)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d err %v", resp.StatusCode, err)
		}
		v = decodeView(t, raw)
	}
	// Width 0 on a named instance defaults to its calibrated routable width.
	if v.Answer != AnswerRoutable || v.Instance != "too_large" || v.Width != 7 {
		t.Fatalf("polled result %+v, want ROUTABLE too_large at width 7", v)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	for name, req := range map[string]SolveRequest{
		"no problem":       {Width: 3},
		"both problems":    {Instance: "alu2", Graph: triangleCol, Width: 3},
		"unknown instance": {Instance: "definitely-not-registered"},
		"graph sans width": {Graph: triangleCol},
	} {
		if code, raw := postSolve(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", name, code, raw)
		}
	}
}

func TestHTTPJobNotFound(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3, Wait: true}); code != http.StatusOK {
		t.Fatalf("warm-up solve: status %d body %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthBody
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Jobs != 1 {
		t.Fatalf("healthz: status %d body %+v err %v", resp.StatusCode, health, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", resp.StatusCode, err)
	}
	if got := snap.Counters[MetricJobsCompleted]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsCompleted, got)
	}
	for _, g := range []string{
		MetricQueueDepth + ".only",
		MetricQueueCap + ".only",
		MetricWorkersBusy + ".only",
		MetricWorkers + ".only",
		MetricPoolGets + ".only",
		MetricJobsRetained,
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %q missing from /metrics", g)
		}
	}
	if _, ok := snap.Timers[MetricSolve]; !ok {
		t.Errorf("timer %q missing from /metrics", MetricSolve)
	}
}

func TestHTTPDeadlineExpiry504(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { time.Sleep(150 * time.Millisecond) })
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3, DeadlineMS: 40, Wait: true})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (body %s), want 504", code, raw)
	}
	v := decodeView(t, raw)
	if !v.TimedOut || v.Answer != AnswerUndecided {
		t.Fatalf("view %+v, want timed_out UNDECIDED", v)
	}
	// The 504 body must still carry the partial per-lane attempt info.
	if v.Attempts < 1 || len(v.Lanes) == 0 {
		t.Fatalf("504 body lost attempt info: %+v", v)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	_, ts := newHTTPServer(t, Options{
		Shards: []ShardConfig{{Name: "only", Workers: 1, QueueDepth: 1}},
	})
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { <-release })
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPPortfolioLane)
		releaseAll()
	})

	var running JobView
	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3}); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d body %s", code, raw)
	} else {
		running = decodeView(t, raw)
	}
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + running.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if decodeView(t, raw).State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3}); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d body %s", code, raw)
	}

	body, _ := json.Marshal(SolveRequest{Graph: triangleCol, Width: 3})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	// No service time has been observed yet (the one worker is stalled),
	// so the adaptive Retry-After bottoms out at its 1-second floor.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want the 1s floor", got)
	}
	releaseAll()
}

// TestHTTPRetryAfterAdaptive covers the computed case: once the shard
// has observed real service times, a 429's Retry-After advertises the
// backlog-drain estimate instead of a hardcoded constant.
func TestHTTPRetryAfterAdaptive(t *testing.T) {
	s, ts := newHTTPServer(t, Options{
		Shards: []ShardConfig{{Name: "only", Workers: 1, QueueDepth: 1}},
	})
	// Pretend the shard has been solving 5-second jobs all day.
	for i := 0; i < 8; i++ {
		s.shards[0].adm.observe(5 * time.Second)
	}
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { <-release })
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPPortfolioLane)
		releaseAll()
	})

	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3}); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d body %s", code, raw)
	}
	// Wait until the worker picked the job up, then occupy the queue slot.
	for s.shards[0].busy.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3}); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d body %s", code, raw)
	}

	body, _ := json.Marshal(SolveRequest{Graph: triangleCol, Width: 3})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	// 1 queued + 1 busy at ~5s each on one worker: the estimate must be
	// at least the 5s median floor, far above the old hardcoded 1.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 5 {
		t.Errorf("Retry-After = %ds, want >= 5s (observed median service time)", secs)
	}
	releaseAll()
}

// TestHTTPIdempotencyKey covers the retry contract: resubmitting with
// the same idempotency key binds to the existing job instead of
// admitting a duplicate.
func TestHTTPIdempotencyKey(t *testing.T) {
	s, ts := newHTTPServer(t, Options{})
	req := SolveRequest{Graph: triangleCol, Width: 3, IdempotencyKey: "retry-me"}
	code, raw := postSolve(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d body %s", code, raw)
	}
	first := decodeView(t, raw)

	// Wait for completion, then retry: the duplicate reports the done
	// job with a 200, same ID, no new admission.
	job, ok := s.Lookup(first.ID)
	if !ok {
		t.Fatalf("job %s not in table", first.ID)
	}
	waitDone(t, job)
	code, raw = postSolve(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: status %d body %s, want 200", code, raw)
	}
	if dup := decodeView(t, raw); dup.ID != first.ID {
		t.Fatalf("duplicate submit created job %s, want %s", dup.ID, first.ID)
	}
	if got := s.reg.Counter(MetricJobsSubmitted).Value(); got != 1 {
		t.Errorf("%s = %d, want 1 (duplicate must not be admitted)", MetricJobsSubmitted, got)
	}
}

func TestHTTPDrainReturns503(t *testing.T) {
	s, ts := newHTTPServer(t, Options{})

	// Before the drain: alive and ready.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyBody
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !ready.Ready || len(ready.Shards) == 0 {
		t.Fatalf("pre-drain readyz: status %d body %+v err %v", resp.StatusCode, ready, err)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d body %s, want 503", code, raw)
	}

	// Liveness stays 200 while draining — restarting a gracefully
	// shutting-down daemon would lose the jobs it is finishing — but it
	// reports the drain state.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthBody
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "draining" {
		t.Fatalf("draining healthz: status %d body %+v err %v", resp.StatusCode, health, err)
	}

	// Readiness flips to 503 so load balancers stop routing here.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Status != "draining" {
		t.Fatalf("draining readyz: status %d body %+v err %v", resp.StatusCode, ready, err)
	}
}

// TestHTTPSigtermDrainViaSignalPath mirrors what cmd/fpgasatd does on
// SIGTERM: stop admission, let in-flight jobs finish, then shut the
// listener down. The in-flight synchronous request must complete with
// its real answer, not an error.
func TestHTTPSigtermDrainViaSignalPath(t *testing.T) {
	s, ts := newHTTPServer(t, Options{
		Shards: []ShardConfig{{Name: "only", Workers: 2, QueueDepth: 16}},
	})
	gate := make(chan struct{})
	var once sync.Once
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { <-gate })
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPPortfolioLane)
		once.Do(func() { close(gate) })
	})

	type result struct {
		code int
		raw  []byte
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			code, raw := postSolve(t, ts, SolveRequest{Graph: triangleCol, Width: 3, Wait: true, DeadlineMS: 60_000})
			results <- result{code, raw}
		}()
	}
	// Wait for all four to be admitted (2 running + 2 queued), then
	// start the drain concurrently and release the solver gate.
	for s.JobCount() < 4 {
		time.Sleep(time.Millisecond)
	}
	drainErr := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		drainErr <- s.Drain(dctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(gate) })

	for i := 0; i < 4; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request during drain: status %d body %s", r.code, r.raw)
		}
		if v := decodeView(t, r.raw); v.Answer != AnswerRoutable {
			t.Fatalf("in-flight request during drain: %+v", v)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestHTTPSolveDistanceInstance is the serve round trip of the
// bandwidth-coloring flow: a crosstalk instance solved with the order
// encoding is ROUTABLE at its calibrated width (with a distance-valid
// track assignment) and UNROUTABLE one track below it.
func TestHTTPSolveDistanceInstance(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	in, err := mcnc.ByName("term1.x2")
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postSolve(t, ts, SolveRequest{
		Instance: in.Name, Strategy: "order/-",
		Wait: true, WantColors: true, Verify: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	v := decodeView(t, raw)
	if v.Answer != AnswerRoutable || v.Width != in.RoutableW {
		t.Fatalf("answer %q at width %d, want ROUTABLE at %d", v.Answer, v.Width, in.RoutableW)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.Verify(g, v.Colors, in.RoutableW); err != nil {
		t.Fatalf("returned track assignment violates a distance constraint: %v", err)
	}

	code, raw = postSolve(t, ts, SolveRequest{
		Instance: in.Name, Strategy: "ladder/-", Width: in.UnroutableW(),
		Wait: true, Verify: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	if v := decodeView(t, raw); v.Answer != AnswerUnroutable {
		t.Fatalf("answer %q at width %d, want UNROUTABLE", v.Answer, in.UnroutableW())
	}
}

// TestHTTPSolveWeightedInlineGraph submits a bandwidth-coloring graph
// as inline weighted DIMACS: a distance-2 triangle needs span 5 tracks
// (colors {0,2,4}) and is infeasible with 4.
func TestHTTPSolveWeightedInlineGraph(t *testing.T) {
	_, ts := newHTTPServer(t, Options{})
	const triX2 = "p edge 3 3\ne 1 2 2\ne 2 3 2\ne 1 3 2\n"
	code, raw := postSolve(t, ts, SolveRequest{
		Graph: triX2, Width: 5, Strategy: "order/-",
		Wait: true, WantColors: true, Verify: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	v := decodeView(t, raw)
	if v.Answer != AnswerRoutable || len(v.Colors) != 3 {
		t.Fatalf("got %s, want ROUTABLE with 3 colors", raw)
	}
	code, raw = postSolve(t, ts, SolveRequest{Graph: triX2, Width: 4, Strategy: "order/-", Wait: true, Verify: true})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	if v := decodeView(t, raw); v.Answer != AnswerUnroutable {
		t.Fatalf("distance-2 triangle at width 4: answer %q, want UNROUTABLE", v.Answer)
	}
}
