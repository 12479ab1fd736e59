package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grn"
	"repro/internal/metrics"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether s is a final state.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Terminal reports whether s is a final state.
func (s JobState) Terminal() bool { return s.terminal() }

// Admission errors. A Runner's Start returns them, bare or wrapped; the
// API answers ErrBusy with 429 plus Retry-After and ErrDraining with
// 503. Any other Start error is the submission's fault: 400.
var (
	ErrBusy     = errors.New("job queue full")
	ErrDraining = errors.New("shutting down")
)

// retryAfter is the Retry-After hint, in seconds, sent with every 429.
const retryAfter = "1"

// Runner executes the jobs behind an API: the local scan (Server) or
// the fleet fan-out (fleet.Coordinator).
type Runner interface {
	// Start admits and starts one submission.
	Start(body []byte, cfg core.Config) (Job, error)
	// Drain makes later Starts fail with ErrDraining and cancels the
	// jobs that must not run to completion. API.Shutdown then waits for
	// every goroutine started through API.Go.
	Drain()
}

// Job is one client-visible submission.
type Job interface {
	ID() string
	// Key is the scan's content address (JobKey), served with 410 Gone
	// once the job is evicted.
	Key() string
	// Status reports the job's lifecycle; the API adds the result fields
	// from Done.
	Status() Status
	// Done returns the result and gene names of a done job, nil before.
	Done() (*core.Result, []string)
	Cancel()
}

// Status is the job-status JSON shape of both runners. It is
// comparable, which the SSE stream uses for change detection. The
// chunk fields are the fleet's; cacheHit is always false on a server.
type Status struct {
	ID         string   `json:"id"`
	Key        string   `json:"key"`
	State      JobState `json:"state"`
	Progress   float64  `json:"progress"`
	CacheHit   bool     `json:"cacheHit"`
	Error      string   `json:"error,omitempty"`
	Created    string   `json:"created,omitempty"`
	Finished   string   `json:"finished,omitempty"`
	Chunks     int      `json:"chunks,omitempty"`
	ChunksDone int      `json:"chunksDone,omitempty"`
	Resumed    int      `json:"resumedChunks,omitempty"`
	Edges      int      `json:"edges,omitempty"`
	RawEdges   int      `json:"rawEdges,omitempty"`
	Threshold  float64  `json:"threshold,omitempty"`
	Evals      int64    `json:"evaluations,omitempty"`
	PermEvals  int64    `json:"permEvaluations,omitempty"`
	DPIRemoved int      `json:"dpiEdgesRemoved,omitempty"`
	CMIRemoved int      `json:"cmiEdgesRemoved,omitempty"`
	SimSecs    float64  `json:"simSeconds,omitempty"`
	CkptRecov  int64    `json:"checkpointRecoveries,omitempty"`
	Bootstraps int      `json:"bootstrapsRun,omitempty"`
	Support    int      `json:"supportEdges,omitempty"`

	// CreatedAt is when the job was submitted and EndedAt when it
	// reached its terminal state (zero before). The API prints them as
	// Created and Finished, and ages terminal jobs from EndedAt.
	CreatedAt time.Time `json:"-"`
	EndedAt   time.Time `json:"-"`
}

// Options are the job API's knobs, shared by Server and
// fleet.Coordinator, which both embed them. Set them before the first
// request.
type Options struct {
	// MaxBodyBytes bounds uploaded matrices (<= 0: 1 GiB).
	MaxBodyBytes int64
	// TTL is how long terminal jobs stay queryable before eviction
	// (<= 0: 15 minutes).
	TTL time.Duration
	// MaxJobs caps the registry: past it the oldest terminal jobs are
	// evicted early (<= 0: 256).
	MaxJobs int
	// EventPoll is the /jobs/{id}/events snapshot interval (<= 0:
	// 50ms).
	EventPoll time.Duration
	// Logger receives structured request and job-lifecycle records
	// (default: discard).
	Logger *slog.Logger
	// Metrics is the exported registry (default: a fresh one).
	Metrics *metrics.Registry
}

// API is the job HTTP API: the job registry with TTL and MaxJobs
// eviction and 410 tombstones, admission-error mapping, all eight
// routes, the SSE stream, request instrumentation and the registry
// gauges. A Runner supplies the jobs.
type API struct {
	opts   *Options
	runner Runner
	prefix string // metric name prefix
	now    func() time.Time

	initOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]Job
	order []string // job ids, oldest first
	// gone maps evicted job ids to their content key so a late GET — an
	// SSE reconnect racing TTL eviction — gets 410 Gone plus the key
	// instead of an indistinguishable 404. A FIFO capped at MaxJobs.
	gone      map[string]string
	goneOrder []string

	mRejected, mEvicted *metrics.Counter
}

// NewAPI binds an API to its runner. The runner's options are read
// through o; metricPrefix names the API's metrics ("tinge_" for the
// scan server, "tinge_fleet_" for the coordinator); now is the
// lifecycle clock.
func NewAPI(r Runner, o *Options, metricPrefix string, now func() time.Time) *API {
	return &API{
		opts: o, runner: r, prefix: metricPrefix, now: now,
		jobs: make(map[string]Job), gone: make(map[string]string),
	}
}

// Init fills unset options with their defaults and registers the API's
// metrics. It runs once; Handler, Submit and Shutdown call it.
func (a *API) Init() {
	a.initOnce.Do(func() {
		o := a.opts
		if o.MaxBodyBytes <= 0 {
			o.MaxBodyBytes = 1 << 30
		}
		if o.TTL <= 0 {
			o.TTL = 15 * time.Minute
		}
		if o.MaxJobs <= 0 {
			o.MaxJobs = 256
		}
		if o.EventPoll <= 0 {
			o.EventPoll = 50 * time.Millisecond
		}
		if o.Logger == nil {
			o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
		if o.Metrics == nil {
			o.Metrics = metrics.New()
		}
		r := o.Metrics
		a.mRejected = r.Counter(a.prefix+"jobs_rejected_total", "Submissions shed with 429 at the admission bound.", nil)
		a.mEvicted = r.Counter(a.prefix+"jobs_evicted_total", "Terminal jobs evicted from the registry.", nil)
		for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
			r.GaugeFunc(a.prefix+"jobs", "Registered jobs by the state they report.",
				metrics.Labels{"state": string(st)}, func() float64 { return float64(a.countState(st)) })
		}
	})
}

// Go runs f on a goroutine that Shutdown waits for. Runners start job
// goroutines through it, under the same lock as their draining check.
func (a *API) Go(f func()) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		f()
	}()
}

// Submit starts a job through the runner and registers it.
func (a *API) Submit(body []byte, cfg core.Config) (Job, error) {
	a.Init()
	a.evict()
	j, err := a.runner.Start(body, cfg)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			a.mRejected.Inc()
		}
		return nil, err
	}
	a.mu.Lock()
	a.jobs[j.ID()] = j
	a.order = append(a.order, j.ID())
	a.mu.Unlock()
	return j, nil
}

// Job returns the job registered under id, or nil.
func (a *API) Job(id string) Job {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.jobs[id]
}

// Shutdown drains the runner and returns once every goroutine started
// through Go has exited, or with ctx's error.
func (a *API) Shutdown(ctx context.Context) error {
	a.Init()
	a.runner.Drain()
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// countState counts registered jobs that report state st.
func (a *API) countState(st JobState) int {
	a.mu.Lock()
	js := make([]Job, 0, len(a.jobs))
	for _, j := range a.jobs {
		js = append(js, j)
	}
	a.mu.Unlock()
	n := 0
	for _, j := range js {
		if j.Status().State == st {
			n++
		}
	}
	return n
}

// evict drops terminal jobs that ended more than TTL ago and, past
// MaxJobs, the oldest terminal jobs regardless of age, leaving a
// tombstone for each. It reads statuses without a.mu held: Status takes
// the runner's own locks.
func (a *API) evict() {
	a.mu.Lock()
	js := make([]Job, len(a.order))
	for i, id := range a.order {
		js[i] = a.jobs[id]
	}
	a.mu.Unlock()

	now := a.now()
	terminal := make([]bool, len(js))
	drop := map[Job]bool{}
	for i, j := range js {
		st := j.Status()
		terminal[i] = st.State.terminal()
		if terminal[i] && now.Sub(st.EndedAt) > a.opts.TTL {
			drop[j] = true
		}
	}
	for i, over := 0, len(js)-len(drop)-a.opts.MaxJobs; i < len(js) && over > 0; i++ {
		if terminal[i] && !drop[js[i]] {
			drop[js[i]] = true
			over--
		}
	}
	if len(drop) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.order[:0]
	for _, id := range a.order {
		if j := a.jobs[id]; drop[j] {
			a.tombstoneLocked(id, j.Key())
			delete(a.jobs, id)
			a.mEvicted.Inc()
		} else {
			kept = append(kept, id)
		}
	}
	a.order = kept
}

func (a *API) tombstoneLocked(id, key string) {
	if _, dup := a.gone[id]; !dup {
		a.gone[id] = key
		a.goneOrder = append(a.goneOrder, id)
	}
	for len(a.goneOrder) > a.opts.MaxJobs {
		delete(a.gone, a.goneOrder[0])
		a.goneOrder = a.goneOrder[1:]
	}
}

// status is j's full status: its lifecycle, the printed times and,
// once done, the result fields.
func (a *API) status(j Job) Status {
	st := j.Status()
	st.Created, st.Finished = stamp(st.CreatedAt), stamp(st.EndedAt)
	if st.State != StateDone {
		return st
	}
	res, _ := j.Done()
	if res == nil {
		return st
	}
	st.Edges = res.Network.Len()
	st.RawEdges = res.RawEdges
	st.Threshold = res.Threshold
	st.Evals = res.PairsEvaluated
	st.PermEvals = res.PermEvaluations
	st.DPIRemoved = res.DPIEdgesRemoved
	st.CMIRemoved = res.CMIEdgesRemoved
	st.SimSecs = res.SimSeconds
	st.CkptRecov = res.CheckpointRecoveries
	st.Bootstraps = res.EnsembleBootstrapsRun
	if res.Ensemble != nil {
		st.Support = res.Ensemble.Len()
	}
	return st
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Handler returns the routed http.Handler.
func (a *API) Handler() http.Handler {
	a.Init()
	mux := http.NewServeMux()
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, a.instrument(path, h))
	}
	route("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	route("POST", "/jobs", a.handleSubmit)
	route("GET", "/jobs", a.handleList)
	route("GET", "/jobs/{id}", a.withJob(a.handleStatus))
	route("GET", "/jobs/{id}/network", a.withJob(a.handleNetwork))
	route("GET", "/jobs/{id}/result", a.withJob(a.handleResult))
	route("GET", "/jobs/{id}/support", a.withJob(a.handleSupport))
	route("GET", "/jobs/{id}/events", a.withJob(a.handleEvents))
	route("DELETE", "/jobs/{id}", a.withJob(a.handleCancel))
	mux.Handle("GET /metrics", a.opts.Metrics.Handler())
	return mux
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying Flusher so SSE streaming works
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with structured request logging and a
// per-route/status request counter.
func (a *API) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		a.opts.Metrics.Counter(a.prefix+"http_requests_total", "HTTP requests by route and status.",
			metrics.Labels{"route": route, "code": strconv.Itoa(sw.code)}).Inc()
		a.opts.Logger.Info("request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", sw.code, "dur_ms", float64(time.Since(start).Microseconds())/1000)
	}
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := ParseConfig(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, a.opts.MaxBodyBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	j, err := a.Submit(body, cfg)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := map[string]any{"id": j.ID(), "key": j.Key()}
	// A job that can be served from a result cache says whether it was.
	if c, ok := j.(interface{ CacheHit() bool }); ok {
		out["cached"] = c.CacheHit()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(out)
}

// withJob resolves the {id} path value: 404 for an unknown id, 410 with
// the content key for an evicted one.
func (a *API) withJob(h func(http.ResponseWriter, *http.Request, Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		a.evict()
		a.mu.Lock()
		j := a.jobs[id]
		key, evicted := a.gone[id]
		a.mu.Unlock()
		switch {
		case j != nil:
			h(w, r, j)
		case evicted:
			// The job existed and its result is gone. The key lets the
			// client resubmit the identical scan and hit the coordinator
			// cache or a checkpoint instead of starting blind.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGone)
			json.NewEncoder(w).Encode(map[string]string{"error": "job evicted", "key": key})
		default:
			http.Error(w, "unknown job", http.StatusNotFound)
		}
	}
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	a.evict()
	a.mu.Lock()
	js := make([]Job, 0, len(a.order))
	for _, id := range a.order {
		js = append(js, a.jobs[id])
	}
	a.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = a.status(j)
	}
	writeJSON(w, out)
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request, j Job) {
	writeJSON(w, a.status(j))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// doneResult returns a done job's result and gene names, or answers 409
// naming the job's state and returns nil.
func doneResult(w http.ResponseWriter, j Job) (*core.Result, []string) {
	st := j.Status().State
	if st == StateDone {
		if res, genes := j.Done(); res != nil {
			return res, genes
		}
	}
	http.Error(w, fmt.Sprintf("job is %s", st), http.StatusConflict)
	return nil, nil
}

func (a *API) handleNetwork(w http.ResponseWriter, r *http.Request, j Job) {
	res, genes := doneResult(w, j)
	if res == nil {
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	// A write error means the response already started; nothing useful
	// is left to send.
	res.Network.WriteTSV(w, genes)
}

// handleSupport serves the ensemble support-weighted edge table as TSV
// (409 until done, 404 for jobs that did not run in ensemble mode).
func (a *API) handleSupport(w http.ResponseWriter, r *http.Request, j Job) {
	res, genes := doneResult(w, j)
	if res == nil {
		return
	}
	if res.Ensemble == nil {
		http.Error(w, "job was not an ensemble run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	res.Ensemble.WriteSupportTSV(w, genes)
}

// ResultResponse is the machine-readable scan result served at
// GET /jobs/{id}/result. The network TSV rounds weights to 6
// significant digits — fine for humans, fatal for the fleet
// coordinator's bit-identity merge — while JSON float64s round-trip
// exactly (Go emits the shortest representation that parses back to
// the same bits). Edges are [i, j, weight] triples in sorted order.
// The four permutation counters mirror core.Result's and are always 0:
// the scan runs no per-pair permutation test. They stay in the wire
// format so existing clients keep decoding it.
type ResultResponse struct {
	ID                   string       `json:"id"`
	Key                  string       `json:"key"`
	Threshold            float64      `json:"threshold"`
	NullSize             int          `json:"nullSize"`
	RawEdges             int          `json:"rawEdges"`
	Edges                [][3]float64 `json:"edges"`
	PairsEvaluated       int64        `json:"pairsEvaluated"`
	PermEvaluations      int64        `json:"permEvaluations"`
	PermutationsSkipped  int64        `json:"permutationsSkipped"`
	PermCacheHits        int64        `json:"permCacheHits"`
	PermCacheMisses      int64        `json:"permCacheMisses"`
	CheckpointRecoveries int64        `json:"checkpointRecoveries"`
	SpillReadRetries     int64        `json:"spillReadRetries"`

	// Ensemble extensions. Full ensemble runs serve the support table as
	// [i, j, support, weightSum] rows (weightSum, not the rounded mean:
	// the fleet's bit-identity contract extends to float64 sums) plus the
	// per-bootstrap thresholds; partial runs (bcount > 0) additionally
	// serve each bootstrap's edge list so the coordinator can fold them
	// in ascending bootstrap order.
	EnsembleBootstraps int            `json:"ensembleBootstraps,omitempty"`
	EnsembleThresholds []float64      `json:"ensembleThresholds,omitempty"`
	Support            [][4]float64   `json:"support,omitempty"`
	BootstrapEdges     [][][3]float64 `json:"bootstrapEdges,omitempty"`
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request, j Job) {
	res, _ := doneResult(w, j)
	if res == nil {
		return
	}
	out := ResultResponse{
		ID:                   j.ID(),
		Key:                  j.Key(),
		Threshold:            res.Threshold,
		NullSize:             res.NullSize,
		RawEdges:             res.RawEdges,
		Edges:                edgeTriples(res.Network.Edges()),
		PairsEvaluated:       res.PairsEvaluated,
		PermEvaluations:      res.PermEvaluations,
		PermutationsSkipped:  res.PermutationsSkipped,
		PermCacheHits:        res.PermCacheHits,
		PermCacheMisses:      res.PermCacheMisses,
		CheckpointRecoveries: res.CheckpointRecoveries,
		SpillReadRetries:     res.SpillReadRetries,
		EnsembleThresholds:   res.EnsembleThresholds,
	}
	if res.Ensemble != nil {
		out.EnsembleBootstraps = res.Ensemble.Bootstraps()
		for _, se := range res.Ensemble.Edges() {
			out.Support = append(out.Support, [4]float64{
				float64(se.I), float64(se.J), float64(se.Support), se.WeightSum,
			})
		}
	}
	for _, net := range res.EnsembleNetworks {
		out.BootstrapEdges = append(out.BootstrapEdges, edgeTriples(net.Edges()))
	}
	writeJSON(w, out)
}

// handleEvents streams job progress as Server-Sent Events: a
// "progress" event whenever the status snapshot changes, then a single
// terminal "done"/"failed"/"canceled" event, after which the stream
// closes. Clients that would otherwise hammer GET /jobs/{id} hold one
// connection instead; on disconnect they reconnect here (or fall back
// to polling — a late reconnect after eviction gets 410 with the
// content key).
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request, j Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(a.opts.EventPoll)
	defer ticker.Stop()
	var last Status
	sent := false
	for {
		st := a.status(j)
		if !sent || st != last {
			name := "progress"
			if st.State.terminal() {
				name = string(st.State)
			}
			if err := writeEvent(w, name, st); err != nil {
				return
			}
			fl.Flush()
			last, sent = st, true
		}
		if st.State.terminal() {
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame with a JSON payload.
func writeEvent(w io.Writer, name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request, j Job) {
	j.Cancel()
	a.opts.Logger.Info("job cancel requested", "job", j.ID())
	w.WriteHeader(http.StatusNoContent)
}

// edgeTriples encodes edges as [i, j, weight] rows.
func edgeTriples(edges []grn.Edge) [][3]float64 {
	out := make([][3]float64, 0, len(edges))
	for _, e := range edges {
		out = append(out, [3]float64{float64(e.I), float64(e.J), e.Weight})
	}
	return out
}
