package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasat/internal/graph"
	"fpgasat/internal/robust"
)

// triangleCol is a 3-vertex conflict graph needing exactly 3 tracks —
// the smallest non-trivial job body.
const triangleCol = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"

// newTestServer builds a server with a compact single-shard layout
// unless cfg overrides it, and drains it at test end.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Shards == nil {
		opts.Shards = []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 2, QueueDepth: 16}}
	}
	if opts.GCInterval == 0 {
		opts.GCInterval = time.Hour // keep the janitor quiet unless the test wants it
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// waitDone blocks until the job completes or the test deadline nears.
func waitDone(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not complete", j.ID)
	}
	return j.View()
}

func TestClassifyRoutesBySize(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "large", MaxVertices: 0, Workers: 1, QueueDepth: 1},
		{Name: "small", MaxVertices: 10, Workers: 1, QueueDepth: 1},
		{Name: "medium", MaxVertices: 1000, Workers: 1, QueueDepth: 1},
	}})
	// NewServer sorts by bound, so classification is by ascending size.
	for _, tc := range []struct {
		n    int
		want string
	}{{1, "small"}, {10, "small"}, {11, "medium"}, {1000, "medium"}, {1001, "large"}} {
		if got := s.classify(tc.n).cfg.Name; got != tc.want {
			t.Errorf("classify(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestNewServerRejectsBadLayouts(t *testing.T) {
	if _, err := NewServer(Options{Shards: []ShardConfig{{Name: "a", MaxVertices: 10}}}); err == nil {
		t.Error("layout without an unbounded catch-all was accepted")
	}
	if _, err := NewServer(Options{Shards: []ShardConfig{
		{Name: "a", MaxVertices: 10}, {Name: "a", MaxVertices: 0},
	}}); err == nil {
		t.Error("duplicate shard names were accepted")
	}
	if _, err := NewServer(Options{Shards: []ShardConfig{{MaxVertices: 0}}}); err == nil {
		t.Error("unnamed shard was accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	for name, req := range map[string]SolveRequest{
		"empty":                   {},
		"both inputs":             {Instance: "alu2", Graph: triangleCol},
		"graph without width":     {Graph: triangleCol},
		"unknown instance":        {Instance: "no-such-instance"},
		"bad graph":               {Graph: "p edge nonsense", Width: 3},
		"bad strategy":            {Graph: triangleCol, Width: 3, Strategy: "no-such-encoding"},
		"portfolio plus strategy": {Graph: triangleCol, Width: 3, Portfolio: true, Strategy: DefaultStrategy},
		"negative width":          {Graph: triangleCol, Width: -1},
		"oversized width":         {Graph: triangleCol, Width: MaxSubmitWidth + 1},
		"negative lanes":          {Graph: triangleCol, Width: 3, Lanes: -2},
		"oversized lanes":         {Graph: triangleCol, Width: 3, Lanes: MaxSubmitLanes + 1},
		"negative retries":        {Graph: triangleCol, Width: 3, MaxRetries: -1},
		"oversized retries":       {Graph: triangleCol, Width: 3, MaxRetries: MaxSubmitRetries + 1},
		"negative budget":         {Graph: triangleCol, Width: 3, ConflictBudget: -5},
		"negative deadline":       {Graph: triangleCol, Width: 3, DeadlineMS: -1},
		"negative lane timeout":   {Graph: triangleCol, Width: 3, LaneTimeoutMS: -1},
	} {
		if _, _, err := s.Submit(req); err == nil {
			t.Errorf("%s: Submit accepted an invalid request", name)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("%s: error %v is not a *RequestError", name, err)
		}
	}
}

func TestSolveInlineGraph(t *testing.T) {
	s := newTestServer(t, Options{})
	job, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, WantColors: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, job)
	if v.Answer != AnswerRoutable {
		t.Fatalf("triangle at W=3: answer %s (error %q), want ROUTABLE", v.Answer, v.Error)
	}
	if len(v.Colors) != 3 {
		t.Fatalf("want_colors returned %d colors, want 3", len(v.Colors))
	}
	if v.Winner == "" || v.Attempts < 1 {
		t.Errorf("winner %q attempts %d: incomplete result", v.Winner, v.Attempts)
	}

	job, _, err = s.Submit(SolveRequest{Graph: triangleCol, Width: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, job); v.Answer != AnswerUnroutable {
		t.Fatalf("triangle at W=2: answer %s, want UNROUTABLE", v.Answer)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 1},
	}})
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { <-release })
	// Cleanups run LIFO, so this fires before newTestServer's Drain —
	// a failed test must not leave the worker parked on the failpoint.
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPPortfolioLane)
		releaseAll()
	})

	running, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker has dequeued the stalled job, so the
	// next submit occupies the one queue slot deterministically.
	for running.View().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit returned %v, want ErrQueueFull", err)
	} else {
		var qf *QueueFullError
		if !errors.As(err, &qf) || qf.RetryAfter < time.Second {
			t.Fatalf("queue-full error %#v should carry a Retry-After of at least 1s", err)
		}
	}
	if got := s.reg.Counter(MetricJobsRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsRejected, got)
	}

	releaseAll()
	waitDone(t, running)
	waitDone(t, queued)
}

// TestQueueClassOrderAndCapacity pins the shard queue's class policy:
// with the one worker held, interactive jobs submitted after batch jobs
// still run first, each class runs in submission order, and a full
// class rejects only its own submits.
func TestQueueClassOrderAndCapacity(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 2},
	}})
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	var mu sync.Mutex
	var ran []string
	robust.SetFailpoint(robust.FPServeWorker, func(args ...any) {
		mu.Lock()
		ran = append(ran, args[0].(string))
		mu.Unlock()
		<-release
	})
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPServeWorker)
		releaseAll()
	})
	submit := func(priority string) (*Job, error) {
		j, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, Priority: priority})
		return j, err
	}
	mustSubmit := func(priority string) *Job {
		t.Helper()
		j, err := submit(priority)
		if err != nil {
			t.Fatalf("%s submit: %v", priority, err)
		}
		return j
	}

	held := mustSubmit(PriorityInteractive)
	for held.View().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	b1, b2 := mustSubmit(PriorityBatch), mustSubmit(PriorityBatch)
	if _, err := submit(PriorityBatch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch submit into a full batch class returned %v, want ErrQueueFull", err)
	}
	i1, i2 := mustSubmit(PriorityInteractive), mustSubmit(PriorityInteractive)
	if _, err := submit(PriorityInteractive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive submit into a full interactive class returned %v, want ErrQueueFull", err)
	}
	if got := s.reg.Counter(MetricJobsRejected).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricJobsRejected, got)
	}
	snap := s.Scrape()
	if got := snap.Gauges[MetricQueueDepth+".only"]; got != 4 {
		t.Errorf("%s.only = %d, want 4", MetricQueueDepth, got)
	}
	if got := snap.Gauges[MetricQueueBatch+".only"]; got != 2 {
		t.Errorf("%s.only = %d, want 2", MetricQueueBatch, got)
	}
	if ready, shards := s.Readiness(); ready || shards[0].Queued != 2 || shards[0].Cap != 2 {
		t.Errorf("readiness with a full interactive class: ready %v, shards %+v", ready, shards)
	}

	releaseAll()
	want := []*Job{held, i1, i2, b1, b2}
	for _, j := range want {
		if v := waitDone(t, j); v.Answer != AnswerRoutable {
			t.Errorf("job %s: answer %s, want ROUTABLE", j.ID, v.Answer)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != len(want) {
		t.Fatalf("worker ran %v, want %d jobs", ran, len(want))
	}
	for i, j := range want {
		if ran[i] != j.ID {
			t.Fatalf("worker ran %v, want held, interactive, then batch: %s %s %s %s %s",
				ran, held.ID, i1.ID, i2.ID, b1.ID, b2.ID)
		}
	}
}

func TestDrainFinishesInFlightJobsAndStopsAdmission(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 2, QueueDepth: 16},
	}})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		v := j.View()
		if v.State != StateDone || v.Answer != AnswerRoutable {
			t.Errorf("job %s after drain: state %s answer %s, want done/ROUTABLE", j.ID, v.State, v.Answer)
		}
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3}); err != ErrDraining {
		t.Errorf("submit after drain returned %v, want ErrDraining", err)
	}
	// Idempotent: a second drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestDrainTimeoutCancelsInFlightSolves(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 4},
	}})
	// A pigeonhole refutation (K18 at 17 colors, no symmetry breaking)
	// cannot finish inside the drain window; the solver stays busy
	// until the expired drain cancels it.
	job, _, err := s.Submit(SolveRequest{Graph: cliqueDIMACS(18), Width: 17, Strategy: "log", DeadlineMS: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	for job.View().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("drain returned %v, want context.DeadlineExceeded", err)
	}
	// The cancelled solve must still have completed its job record.
	v := waitDone(t, job)
	if v.State != StateDone {
		t.Errorf("job state %s after cancelled drain, want done", v.State)
	}
}

// cliqueDIMACS renders K_n in DIMACS edge format; coloring it with
// n-1 colors and no symmetry breaking is a pigeonhole refutation, the
// canonical exponentially-hard CDCL input.
func cliqueDIMACS(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p edge %d %d\n", n, n*(n-1)/2)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			fmt.Fprintf(&b, "e %d %d\n", u, v)
		}
	}
	return b.String()
}

func TestJobGC(t *testing.T) {
	s := newTestServer(t, Options{
		RetainJobs: 10 * time.Millisecond,
		GCInterval: 5 * time.Millisecond,
	})
	job, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	deadline := time.Now().Add(10 * time.Second)
	for s.JobCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job table still holds %d jobs after retention expired", s.JobCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s.Lookup(job.ID); ok {
		t.Error("completed job still resolvable after GC")
	}
}

func TestJobTableCapEvictsOldestDone(t *testing.T) {
	s := newTestServer(t, Options{MaxJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if n := s.JobCount(); n > 2 {
		t.Errorf("job table holds %d jobs, cap is 2", n)
	}
	if _, ok := s.Lookup(ids[0]); ok {
		t.Error("oldest completed job survived the cap eviction")
	}
	if _, ok := s.Lookup(ids[3]); !ok {
		t.Error("newest job was evicted")
	}
}

func TestDeadlineMapsToUndecidedWithAttempts(t *testing.T) {
	s := newTestServer(t, Options{})
	// Stall the lane past the job deadline; the solve then observes the
	// expired context and returns Unknown with its attempt recorded.
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { time.Sleep(150 * time.Millisecond) })
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	job, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, job)
	if v.Answer != AnswerUndecided || !v.TimedOut {
		t.Fatalf("answer %s timed_out %v, want UNDECIDED with timed_out", v.Answer, v.TimedOut)
	}
	if v.Attempts < 1 || len(v.Lanes) != 1 || v.Lanes[0].Attempts < 1 {
		t.Errorf("partial attempt info missing: attempts %d lanes %+v", v.Attempts, v.Lanes)
	}
	if got := s.reg.Counter(MetricJobsTimeout).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsTimeout, got)
	}
}

func TestInstanceCacheIsReused(t *testing.T) {
	s := newTestServer(t, Options{})
	e1, err := s.resolveInstance("alu2")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.resolveInstance("alu2")
	if err != nil {
		t.Fatal(err)
	}
	if e1.g != e2.g {
		t.Error("second resolveInstance rebuilt the graph instead of using the cache")
	}
	if _, err := graph.ParseDIMACS(strings.NewReader(triangleCol), graph.MaxParseVertices); err != nil {
		t.Fatal(err)
	}
}
