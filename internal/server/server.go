package server

// The HTTP serving tier: bounded admission, a worker pool, singleflight
// coalescing onto the content-addressed cache, streaming progress, and
// a graceful drain. Routes (Go 1.22 method+wildcard patterns):
//
//	POST /v1/jobs                        submit a request
//	GET  /v1/jobs/{id}                   one job's status
//	GET  /v1/jobs/{id}/result            the result body (once done)
//	GET  /v1/jobs/{id}/stream            progress as NDJSON
//	GET  /v1/jobs/{id}/artifacts/{name}  rendered obs artifacts
//	GET  /v1/cache                       cache stats
//	GET  /v1/metrics                     endpoint + cache metrics as CSV
//	GET  /v1/healthz                     liveness + drain state
//
// Admission control: a submit that misses the cache and coalesces with
// nothing must win a slot in a bounded queue; a full queue answers 429
// with Retry-After rather than letting latency grow without bound, and
// a draining server answers 503. Accepted jobs are never dropped by a
// drain — Shutdown stops admission, lets the workers finish the queue,
// and only cancels in-flight work when its deadline expires. The job
// table keeps every queued and running job but only the newest
// keepJobs terminal ones.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"svtsim/internal/obs"
	"svtsim/internal/uerr"
)

// Config sizes the serving tier. Zero values take the defaults below.
type Config struct {
	// Workers is the number of jobs simulated concurrently.
	Workers int
	// Queue bounds the jobs admitted but not yet running; a full queue
	// rejects submissions with 429.
	Queue int
	// JobTimeout is the per-job wall-clock budget (0 means none).
	JobTimeout time.Duration
	// CacheBudget is the result cache's byte budget (<= 0 disables it).
	CacheBudget int64
	// SimWorkers is the in-job sweep parallelism handed to
	// exp.Session.SetParallelism (0 means GOMAXPROCS).
	SimWorkers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 32
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 64 << 20
	}
	return c
}

// Server is the svtsimd serving core, independent of any net.Listener:
// tests drive Handler directly through httptest.
type Server struct {
	cfg   Config
	cache *Cache
	stats *obs.EndpointStats
	memos memoSet // phase-1 memos shared by density, storm and lb jobs

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // digest → job not yet terminal
	retired  []string        // IDs of the terminal jobs in jobs, oldest first
	draining bool
	nextID   int

	queue chan *job
	wg    sync.WaitGroup

	// runHook, when set, runs inside the worker before the simulation;
	// an error fails the job. Tests use it to block or fail jobs on cue.
	runHook func(ctx context.Context, req *Request) error
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheBudget),
		stats:      obs.NewEndpointStats(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		queue:      make(chan *job, cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown drains the server: admission stops immediately (new submits
// get 503), queued and running jobs are given until ctx's deadline to
// finish, and anything still running past it is canceled. No accepted
// job is ever dropped without a terminal state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // workers drain the backlog, then exit
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel in-flight jobs at step granularity
		<-finished
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	j.setRunning()

	// A panic fails this job alone: the worker, the queue behind it and
	// the process survive. Pooled sweep cells re-raise theirs here too,
	// and a simulator panic already carries its replay seeds.
	var entry *cacheEntry
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("simulation panicked: %v", r)
			}
		}()
		if s.runHook != nil {
			if err := s.runHook(ctx, j.req); err != nil {
				return err
			}
		}
		entry, err = s.execute(ctx, j)
		return err
	}()

	// The result enters the cache before the job leaves s.inflight, so
	// admission always finds a finished digest in one or the other. One
	// s.mu section turns the job terminal and retires it, so no client
	// sees it terminal while later jobs retire ahead of it.
	s.mu.Lock()
	switch {
	case err == nil:
		s.cache.Put(j.digest, entry.body, entry.artifacts)
		j.finish(StateDone, entry, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, nil, err.Error())
	default:
		j.finish(StateFailed, nil, err.Error())
	}
	if s.inflight[j.digest] == j {
		delete(s.inflight, j.digest)
	}
	s.retireLocked(j)
	s.mu.Unlock()
}

// keepJobs bounds the terminal jobs the server remembers. Each holds
// its progress log and its result, which outlives the result's cache
// entry, so without a bound the cache's byte budget would not bound the
// daemon's memory.
const keepJobs = 256

// retireLocked records that j has reached a terminal state and forgets
// the oldest terminal jobs beyond keepJobs; a forgotten job's ID answers
// 404 like an unknown one. Queued and running jobs are never forgotten.
// s.mu must be held.
func (s *Server) retireLocked(j *job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > keepJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// routes is the whole wire surface: each pattern with the endpoint name
// its metrics carry and its handler. Every route has a non-test caller;
// TestEveryRouteHasACaller keeps it that way.
var routes = []struct {
	pattern, endpoint string
	handle            func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/jobs", "submit", (*Server).handleSubmit},
	{"GET /v1/jobs/{id}", "status", (*Server).handleStatus},
	{"GET /v1/jobs/{id}/result", "result", (*Server).handleResult},
	{"GET /v1/jobs/{id}/stream", "stream", (*Server).handleStream},
	{"GET /v1/jobs/{id}/artifacts/{name}", "artifact", (*Server).handleArtifact},
	{"GET /v1/cache", "cache", (*Server).handleCache},
	{"GET /v1/metrics", "metrics", (*Server).handleMetrics},
	{"GET /v1/healthz", "healthz", (*Server).handleHealthz},
}

// Handler returns the server's HTTP mux, each route wrapped with
// per-endpoint request/latency instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.instrument(rt.endpoint, func(w http.ResponseWriter, r *http.Request) {
			rt.handle(s, w, r)
		}))
	}
	return mux
}

// statusWriter records the status code an endpoint wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.stats.Observe(endpoint, sw.status, float64(time.Since(start).Microseconds())/1000)
	})
}

// errBody is the JSON error envelope. Structured parse errors carry the
// full uerr shape so clients can point at the offending field.
type errBody struct {
	Error  string  `json:"error"`
	Detail *uerr.E `json:"detail,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func writeErr(w http.ResponseWriter, code int, err error) {
	body := errBody{Error: err.Error()}
	var ue *uerr.E
	if errors.As(err, &ue) {
		body.Detail = ue
	}
	writeJSON(w, code, body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, errors.New("malformed request body: data after the request object"))
		return
	}
	if err := req.Canonicalize(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, code, err := s.admit(&req, req.Digest())
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, code, st)
}

// admit is the one admission step. It holds s.mu throughout, so no twin
// slips between its checks: a draining server refuses (503); a cache
// hit is born done and takes no queue slot (200); an identical job
// queued or running absorbs the submission (202); anything else wins a
// queue slot (202) or is refused (429).
func (s *Server) admit(req *Request, digest string) (JobStatus, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, http.StatusServiceUnavailable, errors.New("server is draining")
	}
	if e := s.cache.Get(digest); e != nil {
		j := s.addJobLocked(req, digest)
		j.cached = true
		j.finish(StateDone, e, "")
		s.retireLocked(j)
		return j.snapshot(), http.StatusOK, nil
	}
	if twin, ok := s.inflight[digest]; ok {
		return twin.snapshot(), http.StatusAccepted, nil
	}
	// Only admit sends on the queue, under s.mu, so a free slot stays free.
	if len(s.queue) == cap(s.queue) {
		return JobStatus{}, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d queued)", s.cfg.Queue)
	}
	j := s.addJobLocked(req, digest)
	s.inflight[digest] = j
	s.queue <- j
	return j.snapshot(), http.StatusAccepted, nil
}

// addJobLocked creates a job under the next ID and records it. s.mu
// must be held.
func (s *Server) addJobLocked(req *Request, digest string) *job {
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), req, digest)
	s.jobs[j.id] = j
	return j
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	state, errMsg, result := j.outcome()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result.body)
	case StateFailed, StateCanceled:
		writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("job %s: %s", state, errMsg))
	default:
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job is %s; stream or poll until done", state))
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	state, _, result := j.outcome()
	if state != StateDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job is %s", state))
		return
	}
	name := r.PathValue("name")
	b, ok := result.artifacts[name]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf(
			"no artifact %q (submit with trace=true; available: %s, %s, %s)",
			name, obs.ArtifactTrace, obs.ArtifactMetricsCSV, obs.ArtifactMetricsJSON))
		return
	}
	if strings.HasSuffix(name, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Write(b)
}

// handleStream replays the job's progress log as NDJSON, one event per
// line, and follows it live. The stream ends after the terminal event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	kick, unsubscribe := j.subscribe()
	defer unsubscribe()
	for next := 0; ; {
		evs, terminal := j.eventsFrom(next)
		next += len(evs)
		for _, ev := range evs {
			if enc.Encode(ev) != nil {
				return
			}
		}
		if len(evs) > 0 {
			w.(http.Flusher).Flush()
		}
		if terminal {
			return
		}
		select {
		case <-kick:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// MetricsText renders the endpoint stats plus cache gauges as CSV: the
// /v1/metrics body, and the daemon's final flush on drain.
func (s *Server) MetricsText() string {
	cs := s.cache.Stats()
	reg := s.stats.Export(func(reg *obs.Registry) {
		reg.Gauge("cache.hits").Set(float64(cs.Hits))
		reg.Gauge("cache.misses").Set(float64(cs.Misses))
		reg.Gauge("cache.evictions").Set(float64(cs.Evictions))
		reg.Gauge("cache.entries").Set(float64(cs.Entries))
		reg.Gauge("cache.bytes").Set(float64(cs.Bytes))
		reg.Gauge("cache.oldest_age_ms").Set(float64(cs.OldestAgeMs))
	})
	var b strings.Builder
	reg.WriteCSV(&b)
	return b.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	io.WriteString(w, s.MetricsText())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "draining": draining, "jobs": n,
	})
}
