package serve

// The serve-layer chaos harness: the 8-client load pattern from
// load_test.go run under random fault injection — worker panics
// mid-job, slow journal fsyncs, journal write errors — followed by a
// simulated SIGKILL mid-load and a restart over the same journal
// directory. The invariants checked are the crash-only contract:
//
//   - zero lost jobs: every submit the server acknowledged is either
//     done in the restarted server or still running there;
//   - zero duplicated jobs: one idempotency key maps to exactly one
//     job ID across both incarnations;
//   - a panic storm trips only the affected shard's breaker while the
//     other shards keep serving.
//
// Everything runs with -race in CI (the chaos-smoke job).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
)

// chaosClient is one load generator: it submits jobs with unique
// idempotency keys, retrying on 429/503, and records every key the
// server acknowledged together with the job ID it was bound to.
type chaosClient struct {
	id       int
	accepted map[string]string // idempotency key -> job ID
}

func postJSON(url string, req SolveRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return http.Post(url+"/v1/solve", "application/json", strings.NewReader(string(body)))
}

// submitChaos submits one job, retrying transient rejections, and
// returns the bound job ID ("" when the server was gone/unavailable
// throughout).
func submitChaos(t *testing.T, url string, req SolveRequest) string {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := postJSON(url, req)
		if err != nil {
			// Server crashed mid-request: the submit may or may not have
			// been accepted; the recovery check resolves it via the key.
			return ""
		}
		var v JobView
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			if derr != nil {
				t.Errorf("decoding accepted response: %v", derr)
				return ""
			}
			return v.ID
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(2 * time.Millisecond)
		default:
			t.Errorf("submit status %d", resp.StatusCode)
			return ""
		}
	}
	return ""
}

// TestChaosCrashRecoveryNoLossNoDup is the headline chaos test: 8
// clients load the daemon while failpoints randomly crash workers and
// slow fsyncs, the server is killed mid-load, and a new server over the
// same journal must account for every acknowledged job exactly once.
func TestChaosCrashRecoveryNoLossNoDup(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real load; skipped in -short")
	}
	dir := t.TempDir()
	opts := Options{
		Shards:     []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 4, QueueDepth: 256}},
		JournalDir: dir,
		GCInterval: time.Hour,
		// Generous sojourn target: shedding is legitimate completion, but
		// the test is cleaner when most jobs actually solve.
		SojournTarget: time.Minute,
		// A panic storm is part of the fault mix; keep the breaker from
		// blackholing the whole run.
		BreakerThreshold: 50,
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Random fault injection: ~3% of dequeues panic the worker, ~10% of
	// fsyncs stall briefly. Each failpoint owns its rng (guarded by a
	// mutex — failpoints fire from many goroutines).
	var fpMu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	robust.SetFailpoint(robust.FPServeWorker, func(args ...any) {
		fpMu.Lock()
		crash := rng.Intn(100) < 3
		fpMu.Unlock()
		if crash {
			panic("chaos: worker crash mid-job")
		}
	})
	robust.SetFailpoint(robust.FPJournalSync, func(args ...any) {
		fpMu.Lock()
		stall := rng.Intn(100) < 10
		fpMu.Unlock()
		if stall {
			time.Sleep(time.Millisecond)
		}
	})
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPServeWorker)
		robust.ClearFailpoint(robust.FPJournalSync)
	})

	const clients = 8
	const jobsPerClient = 12
	results := make([]chaosClient, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := chaosClient{id: c, accepted: map[string]string{}}
			for i := 0; i < jobsPerClient; i++ {
				key := fmt.Sprintf("chaos-%d-%d", c, i)
				id := submitChaos(t, ts.URL, SolveRequest{
					Graph: triangleCol, Width: 3, IdempotencyKey: key,
					DeadlineMS: 60_000,
				})
				if id != "" {
					cl.accepted[key] = id
				}
			}
			results[c] = cl
		}(c)
	}

	// Kill the server while the clients are mid-load.
	time.Sleep(50 * time.Millisecond)
	s.Crash()
	ts.Close()
	wg.Wait()

	// Restart over the same journal. Give recovery a fresh registry so
	// the counters below measure only this incarnation.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	s2, err := NewServer(opts)
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s2.Drain(ctx)
	}()

	// Zero lost: every acknowledged key resolves to a job in the
	// restarted server — either restored done or re-enqueued — and the
	// ID binding survived.
	total := 0
	for _, cl := range results {
		for key, id := range cl.accepted {
			total++
			job, ok := s2.jobs.getByKey(key)
			if !ok {
				t.Errorf("client %d: acknowledged key %s lost across crash", cl.id, key)
				continue
			}
			if job.ID != id {
				t.Errorf("key %s rebound from %s to %s across crash", key, id, job.ID)
			}
		}
	}
	if total == 0 {
		t.Fatal("chaos run acknowledged no jobs at all; the load phase is broken")
	}

	// Zero duplicated: a resubmit with a recovered key must bind to the
	// recovered job, not admit a new one.
	for _, cl := range results {
		for key, id := range cl.accepted {
			job, dup, err := s2.Submit(SolveRequest{
				Graph: triangleCol, Width: 3, IdempotencyKey: key,
			})
			if err != nil {
				t.Fatalf("resubmit of %s: %v", key, err)
			}
			if !dup || job.ID != id {
				t.Errorf("resubmit of %s: dup=%v id=%s, want duplicate of %s", key, dup, job.ID, id)
			}
			break // one spot-check per client keeps the test fast
		}
	}

	// Every recovered pending job must eventually complete.
	deadline := time.Now().Add(60 * time.Second)
	for _, cl := range results {
		for key := range cl.accepted {
			job, ok := s2.jobs.getByKey(key)
			if !ok {
				continue // already reported above
			}
			select {
			case <-job.Done():
			case <-time.After(time.Until(deadline)):
				t.Fatalf("recovered job %s (key %s) never completed", job.ID, key)
			}
		}
	}
	if got := reg.Counter(MetricJournalReplayed).Value(); got == 0 {
		t.Error("restart replayed no journal records; recovery did not engage")
	}
}

// TestRecoverMoreJobsThanQueueDepth restarts over a journal holding
// more unfinished jobs than the new server's queue depth: they were
// acknowledged already, so every one is recovered and solved.
func TestRecoverMoreJobsThanQueueDepth(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	s, err := NewServer(Options{
		Shards:     []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: n}},
		JournalDir: dir,
		GCInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	robust.SetFailpoint(robust.FPServeWorker, func(args ...any) { <-release })
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPServeWorker)
		releaseAll()
	})
	var ids []string
	for i := 0; i < n; i++ {
		j, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Kill the journal before the held worker resumes, so no job can
	// journal its result and all n stay unfinished on disk.
	s.journal.kill()
	robust.ClearFailpoint(robust.FPServeWorker)
	releaseAll()
	s.Crash()

	reg := obs.NewRegistry()
	s2 := newTestServer(t, Options{
		Shards:     []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 2}},
		JournalDir: dir,
		Metrics:    reg,
	})
	if got := reg.Counter(MetricJournalRecovered).Value(); got != n {
		t.Errorf("%s = %d, want %d", MetricJournalRecovered, got, n)
	}
	for _, id := range ids {
		job, ok := s2.Lookup(id)
		if !ok {
			t.Errorf("job %s lost across the restart", id)
			continue
		}
		if v := waitDone(t, job); v.Answer != AnswerRoutable {
			t.Errorf("recovered job %s: answer %s (error %q), want ROUTABLE", id, v.Answer, v.Error)
		}
	}
}

// TestChaosJournalWriteErrorRejectsSubmit proves the durability-or-
// rejection contract: when the WAL cannot be written, the submit fails
// with ErrJournal (503) and the job is neither queued nor retained.
func TestChaosJournalWriteErrorRejectsSubmit(t *testing.T) {
	s := newTestServer(t, Options{JournalDir: t.TempDir()})
	robust.SetFailpoint(robust.FPJournalAppend, func(args ...any) {
		if args[0] == recSubmit {
			*(args[1].(*error)) = errors.New("chaos: disk full")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPJournalAppend) })

	_, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, IdempotencyKey: "doomed"})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with failing journal returned %v, want ErrJournal", err)
	}
	if s.JobCount() != 0 {
		t.Errorf("rejected submit left %d jobs in the table", s.JobCount())
	}
	if _, ok := s.jobs.getByKey("doomed"); ok {
		t.Error("rejected submit left its idempotency key bound")
	}

	// The path must recover once the fault clears: same key, accepted.
	robust.ClearFailpoint(robust.FPJournalAppend)
	job, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, IdempotencyKey: "doomed"})
	if err != nil {
		t.Fatalf("submit after fault cleared: %v", err)
	}
	waitDone(t, job)
}

// TestChaosPanicStormTripsOnlyAffectedShard poisons one shard with
// worker panics until its breaker opens, then checks the sibling shard
// still accepts and solves jobs.
func TestChaosPanicStormTripsOnlyAffectedShard(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: []ShardConfig{
			{Name: "small", MaxVertices: 10, Workers: 2, QueueDepth: 32},
			{Name: "large", MaxVertices: 0, Workers: 2, QueueDepth: 32},
		},
		BreakerThreshold: 3,
		BreakerBackoff:   time.Minute, // stay open for the whole test
	})
	robust.SetFailpoint(robust.FPServeWorker, func(args ...any) {
		if args[1].(string) == "small" {
			panic("chaos: poisoned shard")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPServeWorker) })

	// Feed the small shard until its breaker opens (each job dies of the
	// injected panic, counting as a supervision failure).
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		var brkErr *BreakerOpenError
		if errors.As(err, &brkErr) {
			if brkErr.Shard != "small" {
				t.Fatalf("breaker open on shard %s, want small", brkErr.Shard)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if v := job.View(); v.Answer != AnswerUndecided || v.Error == "" {
			t.Fatalf("poisoned job finished as %+v, want failed UNDECIDED", v)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under the panic storm")
		}
	}
	if got := s.reg.Gauge(MetricBreakerState + ".small").Value(); got != breakerOpen {
		t.Errorf("small shard breaker gauge = %d, want open (%d)", got, breakerOpen)
	}
	if got := s.reg.Counter(MetricBreakerTrips + ".small").Value(); got < 1 {
		t.Errorf("%s.small = %d, want >= 1", MetricBreakerTrips, got)
	}

	// The sibling shard is untouched: a 12-vertex job routes to "large"
	// and solves normally.
	job, _, err := s.Submit(SolveRequest{Graph: cliqueDIMACS(12), Width: 12})
	if err != nil {
		t.Fatalf("large shard rejected a job while small is open: %v", err)
	}
	if v := waitDone(t, job); v.Answer != AnswerRoutable || v.Shard != "large" {
		t.Fatalf("large-shard job: %+v, want ROUTABLE on large", v)
	}
	if got := s.reg.Gauge(MetricBreakerState + ".large").Value(); got != breakerClosed {
		t.Errorf("large shard breaker = %d, want closed", got)
	}

	// Readiness reflects the partial outage: still ready overall, with
	// the small shard reported open.
	ready, shards := s.Readiness()
	if !ready {
		t.Error("server not ready although the large shard is healthy")
	}
	for _, st := range shards {
		want := "closed"
		if st.Name == "small" {
			want = "open"
		}
		if st.Breaker != want {
			t.Errorf("shard %s breaker %q, want %q", st.Name, st.Breaker, want)
		}
	}
}

// TestChaosQueueStallSheds wedges the shard's consumer with a blocked
// dequeue failpoint so queued jobs overstay the sojourn target, then
// checks they are shed (completed UNDECIDED, Shed set) instead of
// solved late or lost.
func TestChaosQueueStallSheds(t *testing.T) {
	s := newTestServer(t, Options{
		Shards:        []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 8}},
		SojournTarget: 20 * time.Millisecond,
	})
	stall := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(stall) }) }
	robust.SetFailpoint(robust.FPServeDequeue, func(args ...any) { <-stall })
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPServeDequeue)
		unstall()
	})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	time.Sleep(40 * time.Millisecond) // all of them overstay the target
	unstall()

	shed := 0
	for _, j := range jobs {
		v := waitDone(t, j)
		if v.Shed {
			shed++
			if v.Answer != AnswerUndecided || v.Error == "" {
				t.Errorf("shed job view %+v, want UNDECIDED with an error", v)
			}
		}
	}
	// The first job was dequeued before the stall engaged (the failpoint
	// fires after the dequeue), so at least the tail must shed.
	if shed == 0 {
		t.Error("no job was shed although all overstayed the sojourn target")
	}
	if got := s.reg.Counter(MetricShedSojourn).Value(); int(got) != shed {
		t.Errorf("%s = %d, want %d", MetricShedSojourn, got, shed)
	}
}
