// The ezserve server: campaign registry, HTTP handlers, and the
// observability registry that exports fabric cache and worker-pool
// health. Handlers follow the obs.Server race discipline — they only
// read atomics and mutex-copied snapshots, never live engine state.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
	"ezflow/internal/obs"
)

// serverOptions configures a campaign server.
type serverOptions struct {
	cacheDir   string        // fabric store directory; empty disables caching
	parallel   int           // per-campaign worker-pool width (0 = GOMAXPROCS)
	maxActive  int           // campaigns executing at once; the rest queue
	runTimeout time.Duration // per-replication wall-clock cap (0 = none)
}

// maxSubmitBytes caps a POST /campaigns body. Real submissions are a
// few KiB even with an embedded scenario; the cap turns a hostile or
// runaway body into a 413 instead of unbounded server memory.
const maxSubmitBytes = 1 << 20

// server owns the campaign registry and the shared fabric store. One
// goroutine per submitted campaign executes it through an Engine; every
// handler observes progress through job snapshots and atomic counters.
type server struct {
	opts  serverOptions
	cache *fabric.Store
	reg   *obs.Registry

	// active bounds concurrently executing campaigns; queued jobs block
	// acquiring a slot.
	active chan struct{}
	// interrupt is closed once at shutdown; it fans out to every
	// engine's Interrupt and to queued jobs waiting for a slot.
	interrupt     chan struct{}
	interruptOnce sync.Once
	jobWG         sync.WaitGroup

	// runActive counts replications simulating right now across all
	// campaigns (shared Engine.RunActive) — cache hits never touch it.
	runActive atomic.Int64

	// Campaign lifecycle tallies, exported as serve.campaigns.* gauges.
	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	interrupted atomic.Int64

	// faults aggregates fault-handling events across every campaign
	// (shared with each engine via Engine.Faults); exported as the
	// fabric.workers.* and campaign.runs.* fault gauges.
	faults campaign.FaultCounters

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job IDs in submission order
	nextID int
}

// job is one submitted campaign. The engine pointer is immutable after
// creation (its own internals are atomic); everything under mu is
// copied out by snapshot() before any handler serialises it.
type job struct {
	id  string
	eng *campaign.Engine

	mu     sync.Mutex
	spec   campaign.Spec
	state  string // "queued" → "running" → "completed"|"failed"|"interrupted"
	done   int
	total  int
	points int
	reps   int
	errMsg string
	result *campaign.Result
	// change is closed and replaced on every observable transition;
	// event streams wait on it instead of polling hot.
	change chan struct{}
}

// jobStatus is the wire form of one campaign's state. It is compact
// (single-line JSON) so NDJSON event streams and CI greps stay simple.
type jobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Points int    `json:"points"`
	Reps   int    `json:"reps"`
	// CacheHits / CacheMisses are the campaign's own fabric traffic so
	// far (both 0 when the server runs cache-less).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Faults carries the campaign's own fault tallies (timeouts, panics,
	// failed runs) when any occurred; healthy campaigns omit it, keeping
	// their status lines unchanged.
	Faults *campaign.FaultStats `json:"faults,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// submitRequest is the POST /campaigns body: a campaign.Spec in its JSON
// form (structural axes, reps, seed, duration, rate, and an embedded
// scenario file that replaces the built-in topology grid exactly as
// `ezcampaign -scenario` does), plus CLI-style sweep strings appended
// after its axes.
type submitRequest struct {
	campaign.Spec
	Sweeps []string `json:"sweeps,omitempty"`
}

// newServer builds a server, opens its fabric store (when configured),
// and registers the observability gauges.
func newServer(o serverOptions) (*server, error) {
	if o.maxActive <= 0 {
		o.maxActive = 1
	}
	s := &server{
		opts:      o,
		active:    make(chan struct{}, o.maxActive),
		interrupt: make(chan struct{}),
		jobs:      make(map[string]*job),
	}
	if o.cacheDir != "" {
		store, err := fabric.Open(o.cacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = store
	}

	// Every probe reads only atomics, so snapshotting the registry from
	// any number of concurrent HTTP handlers is race-free by
	// construction — the same property obs.Server gets from publishing
	// immutable snapshots through an atomic pointer.
	reg := obs.NewRegistry()
	reg.Gauge("fabric.cache.hits", func() float64 { return float64(s.cache.Stats().Hits) })
	reg.Gauge("fabric.cache.misses", func() float64 { return float64(s.cache.Stats().Misses) })
	reg.Gauge("fabric.cache.puts", func() float64 { return float64(s.cache.Stats().Puts) })
	reg.Gauge("fabric.cache.evictions", func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.Gauge("fabric.workers.active", func() float64 { return float64(s.runActive.Load()) })
	slots := float64(o.maxActive * resolveParallel(o.parallel))
	reg.Gauge("fabric.workers.slots", func() float64 { return slots })
	reg.Gauge("fabric.workers.utilization", func() float64 {
		return float64(s.runActive.Load()) / slots
	})
	reg.Gauge("serve.campaigns.submitted", func() float64 { return float64(s.submitted.Load()) })
	reg.Gauge("serve.campaigns.completed", func() float64 { return float64(s.completed.Load()) })
	reg.Gauge("serve.campaigns.failed", func() float64 { return float64(s.failed.Load()) })
	reg.Gauge("serve.campaigns.interrupted", func() float64 { return float64(s.interrupted.Load()) })
	// Fault-handling gauges (PR 9). Worker failures/restarts stay 0 while
	// ezserve executes in-process only, but the schema matches ezcampaign's
	// `faults:` summary so dashboards need one shape.
	reg.Gauge("fabric.workers.failures", func() float64 { return float64(s.faults.Snapshot().WorkerFailures) })
	reg.Gauge("fabric.workers.restarts", func() float64 { return float64(s.faults.Snapshot().WorkerRestarts) })
	reg.Gauge("campaign.runs.retried", func() float64 { return float64(s.faults.Snapshot().RunsRetried) })
	reg.Gauge("campaign.runs.timeout", func() float64 { return float64(s.faults.Snapshot().RunsTimeout) })
	reg.Gauge("campaign.runs.panicked", func() float64 { return float64(s.faults.Snapshot().RunsPanicked) })
	reg.Gauge("campaign.runs.failed", func() float64 { return float64(s.faults.Snapshot().RunsFailed) })
	s.reg = reg
	return s, nil
}

// shutdown stops dispatching new replications (in-flight ones finish
// into the cache) and marks queued campaigns interrupted.
func (s *server) shutdown() {
	s.interruptOnce.Do(func() { close(s.interrupt) })
}

// wait blocks until every campaign goroutine has finished.
func (s *server) wait() { s.jobWG.Wait() }

// hardenedServer wraps the handler in an http.Server with slow-client
// protection: a slowloris peer trickling header bytes, a stalled body
// upload, or a pile of idle keep-alive connections each hits a deadline
// instead of pinning a goroutine forever. WriteTimeout stays 0
// deliberately — /campaigns/{id}/events streams for a campaign's whole
// lifetime, and a write deadline would sever it mid-run.
func hardenedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/result.csv", s.handleResultCSV)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	return mux
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `ezflow campaign service

POST /campaigns                submit a sweep (JSON body)
GET  /campaigns                list campaigns
GET  /campaigns/{id}           campaign status
GET  /campaigns/{id}/events    NDJSON progress stream
GET  /campaigns/{id}/result    campaign result (JSON)
GET  /campaigns/{id}/result.csv  per-replication CSV
GET  /stats                    cache + worker statistics
GET  /metrics                  observability snapshot
GET  /debug/pprof/             profiling
`)
}

// handleSubmit validates the sweep (Enumerate runs here, so bad axes
// are a 400, not a failed job), registers the campaign, and starts it.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("submission body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding submission: %v", err))
		return
	}
	spec := req.Spec
	for _, sw := range req.Sweeps {
		ax, err := campaign.ParseSweep(sw)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		spec.Axes = append(spec.Axes, ax)
	}
	points, err := spec.Enumerate()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	reps := spec.Reps
	if reps <= 0 {
		reps = 1
	}

	j := &job{
		eng: &campaign.Engine{
			Parallel:   s.opts.parallel,
			Cache:      s.cache,
			Interrupt:  s.interrupt,
			RunActive:  &s.runActive,
			RunTimeout: s.opts.runTimeout,
			Faults:     &s.faults,
		},
		spec:   spec,
		state:  "queued",
		total:  len(points) * reps,
		points: len(points),
		reps:   reps,
		change: make(chan struct{}),
	}
	j.eng.Progress = func(done, total int) { j.setProgress(done) }

	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("c%04d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.submitted.Add(1)

	s.jobWG.Add(1)
	go s.runJob(j)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.snapshot()) //nolint:errcheck // client went away
}

// runJob waits for an execution slot, runs the campaign, and records
// the outcome. Interruption (server shutdown) is terminal but safe:
// every finished replication is already in the cache, so resubmitting
// the same spec resumes from there.
func (s *server) runJob(j *job) {
	defer s.jobWG.Done()
	select {
	case s.active <- struct{}{}:
		defer func() { <-s.active }()
	case <-s.interrupt:
		j.finish(nil, campaign.ErrInterrupted)
		s.interrupted.Add(1)
		return
	}
	j.setState("running")
	res, err := j.eng.Run(j.spec)
	j.finish(res, err)
	switch {
	case err == nil:
		s.completed.Add(1)
	case err == campaign.ErrInterrupted:
		s.interrupted.Add(1)
	default:
		s.failed.Add(1)
	}
}

// lookup resolves the {id} path segment, writing a 404 on failure.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no campaign %q", id))
	}
	return j
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client went away
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot()) //nolint:errcheck // client went away
}

// handleEvents streams the campaign's status as NDJSON: one line
// immediately, another on every progress change (with a 1 s heartbeat
// fallback), ending with the line that carries the terminal state.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	heartbeat := time.NewTicker(time.Second)
	defer heartbeat.Stop()
	for {
		st, change := j.observe()
		if err := enc.Encode(st); err != nil {
			return
		}
		if canFlush {
			fl.Flush()
		}
		if terminal(st.State) {
			return
		}
		select {
		case <-change:
		case <-heartbeat.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	res, ok := j.takeResult(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	campaign.JSONSink{W: w}.Emit(res) //nolint:errcheck // client went away
}

func (s *server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	res, ok := j.takeResult(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	campaign.CSVSink{W: w}.Emit(res) //nolint:errcheck // client went away
}

// statsResponse is the GET /stats document.
type statsResponse struct {
	Cache struct {
		Enabled bool   `json:"enabled"`
		Dir     string `json:"dir,omitempty"`
		fabric.Stats
		Entries int `json:"entries"`
	} `json:"cache"`
	Workers struct {
		Active int64 `json:"active"`
		Slots  int   `json:"slots"`
	} `json:"workers"`
	Campaigns struct {
		Submitted   int64 `json:"submitted"`
		Completed   int64 `json:"completed"`
		Failed      int64 `json:"failed"`
		Interrupted int64 `json:"interrupted"`
	} `json:"campaigns"`
	// Faults aggregates fault-handling events across all campaigns.
	Faults campaign.FaultStats `json:"faults"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out statsResponse
	if s.cache != nil {
		out.Cache.Enabled = true
		out.Cache.Dir = s.cache.Dir()
		out.Cache.Stats = s.cache.Stats()
		out.Cache.Entries = s.cache.Len()
	}
	out.Workers.Active = s.runActive.Load()
	out.Workers.Slots = s.opts.maxActive * resolveParallel(s.opts.parallel)
	out.Campaigns.Submitted = s.submitted.Load()
	out.Campaigns.Completed = s.completed.Load()
	out.Campaigns.Failed = s.failed.Load()
	out.Campaigns.Interrupted = s.interrupted.Load()
	out.Faults = s.faults.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client went away
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Wall-clock services have no simulation clock; snapshots are "now".
	snap := s.reg.Snapshot(0)
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w) //nolint:errcheck // client went away
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // client went away
}

// terminal reports whether a campaign state is final.
func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "interrupted"
}

// snapshot copies the job's observable state under its lock. The cache
// counters come from the engine's own atomics, so a snapshot taken
// mid-run is still consistent enough to serve.
func (j *job) snapshot() jobStatus {
	cs := j.eng.CacheStats()
	var faults *campaign.FaultStats
	if fs := j.eng.FaultStats(); fs != (campaign.FaultStats{}) {
		faults = &fs
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		State:       j.state,
		Done:        j.done,
		Total:       j.total,
		Points:      j.points,
		Reps:        j.reps,
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
		Faults:      faults,
		Error:       j.errMsg,
	}
}

// observe returns a status snapshot together with the change channel
// that will close on the next transition after it.
func (j *job) observe() (jobStatus, <-chan struct{}) {
	st := j.snapshot()
	j.mu.Lock()
	ch := j.change
	j.mu.Unlock()
	return st, ch
}

// notifyLocked wakes every event stream; callers hold j.mu.
func (j *job) notifyLocked() {
	close(j.change)
	j.change = make(chan struct{})
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.notifyLocked()
	j.mu.Unlock()
}

func (j *job) setProgress(done int) {
	j.mu.Lock()
	j.done = done
	j.notifyLocked()
	j.mu.Unlock()
}

// finish records a campaign's outcome.
func (j *job) finish(res *campaign.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state = "completed"
		j.done = j.total
		j.result = res
	case err == campaign.ErrInterrupted:
		j.state = "interrupted"
		j.errMsg = err.Error()
	default:
		j.state = "failed"
		j.errMsg = err.Error()
	}
	j.notifyLocked()
}

// takeResult returns the completed result or writes the appropriate
// error status (404 is handled by lookup; this covers "not done yet"
// and terminal failures).
func (j *job) takeResult(w http.ResponseWriter) (*campaign.Result, bool) {
	j.mu.Lock()
	state, res, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch {
	case res != nil:
		return res, true
	case state == "failed" || state == "interrupted":
		httpError(w, http.StatusConflict, fmt.Sprintf("campaign %s: %s", state, errMsg))
		return nil, false
	default:
		httpError(w, http.StatusConflict, fmt.Sprintf("campaign is %s; result not ready", state))
		return nil, false
	}
}
