package serve

// The HTTP surface of the daemon. Five endpoints:
//
//	POST /v1/solve     submit a job (async 202, or sync with "wait")
//	GET  /v1/jobs/{id} job status / result
//	GET  /metrics      live obs snapshot (JSON)
//	GET  /healthz      liveness (200 while the process serves requests)
//	GET  /readyz       readiness (503 while draining or saturated)
//
// Error mapping: *RequestError -> 400, ErrQueueFull -> 429 with an
// adaptive Retry-After computed from the shard's observed service
// times, *BreakerOpenError -> 503 with Retry-After set to the breaker's
// remaining backoff, ErrDraining and ErrJournal -> 503, a synchronous
// job whose deadline expired mid-solve -> 504 with the partial job view
// (attempt counts per lane) in the body, and a synchronous job shed by
// the admission controller -> 503.
//
// Idempotency: a request carrying idempotency_key returns the
// already-accepted job when the key is known — 200 if that job is done,
// 202 (or the usual synchronous wait) otherwise — instead of admitting
// a duplicate.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// maxRequestBody bounds POST bodies; inline DIMACS graphs above this
// belong in a file submitted through an instance registry instead.
const maxRequestBody = 64 << 20

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body) // the status line is already out; nothing to recover
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request: " + err.Error()})
		return
	}
	job, duplicate, err := s.Submit(req)
	if err != nil {
		var reqErr *RequestError
		var fullErr *QueueFullError
		var brkErr *BreakerOpenError
		switch {
		case errors.As(err, &reqErr):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		case errors.As(err, &fullErr):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(fullErr.RetryAfter)))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.As(err, &brkErr):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(brkErr.RetryAfter)))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrJournal):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	if duplicate {
		// Idempotent replay of an accepted request: report the bound job.
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, job.View())
			return
		default:
		}
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, job.View())
		return
	}
	select {
	case <-job.Done():
		v := job.View()
		switch {
		case v.Shed:
			// Load-shed at dequeue: the server chose not to solve it.
			writeJSON(w, http.StatusServiceUnavailable, v)
		case v.TimedOut:
			// The job's own deadline expired mid-solve; the view still
			// carries the per-lane attempt counts accumulated so far.
			writeJSON(w, http.StatusGatewayTimeout, v)
		case v.Answer == AnswerUndecided:
			writeJSON(w, http.StatusInternalServerError, v)
		default:
			writeJSON(w, http.StatusOK, v)
		}
	case <-r.Context().Done():
		// The client went away (or its own request deadline passed)
		// while the job was still solving; report the in-flight view.
		writeJSON(w, http.StatusGatewayTimeout, job.View())
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.Scrape().WriteJSON(w)
}

// healthBody is the GET /healthz payload.
type healthBody struct {
	Status string `json:"status"`
	Jobs   int    `json:"jobs"`
}

// handleHealthz is pure liveness: it answers 200 as long as the process
// can serve a request at all, even while draining — restarting a
// daemon because it is shutting down gracefully would only lose the
// jobs it is trying to finish. Point liveness probes here and traffic
// routing at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthBody{Status: status, Jobs: s.JobCount()})
}

// readyBody is the GET /readyz payload.
type readyBody struct {
	Ready  bool          `json:"ready"`
	Status string        `json:"status"`
	Shards []ShardStatus `json:"shards"`
}

// handleReadyz is readiness: 200 while the daemon should receive new
// traffic, 503 once it is draining or no shard can accept an
// interactive job (every breaker open or every queue full). Load
// balancers should eject on 503 here and re-add when it recovers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, shards := s.Readiness()
	body := readyBody{Ready: ready, Status: "ready", Shards: shards}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		body.Status = "not ready"
		if s.Draining() {
			body.Status = "draining"
		}
	}
	writeJSON(w, code, body)
}
