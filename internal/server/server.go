// Package server exposes the inference pipeline as an HTTP service —
// the deployment shape a shared-instrument lab actually runs: one
// machine (with the coprocessor) owns the compute, clients submit
// expression matrices and poll for networks.
//
// The job API is written once (API, api.go) and served by two runners:
// Server, which scans locally, and fleet.Coordinator, which fans each
// scan out to Server workers. Both answer the same routes:
//
//	POST   /jobs            TSV expression matrix in the body; config
//	                        via query params (permutations, alpha, dpi,
//	                        dpitolerance, cmi, cmiratio, engine, seed,
//	                        workers, nullpairs, ...).
//	                        Returns 202 with {"id": ..., "key": ...}, 429
//	                        with Retry-After: 1 when at capacity, 503
//	                        while draining for shutdown, 400 for a bad
//	                        submission.
//	GET    /jobs            list every registered job (oldest first).
//	GET    /jobs/{id}       job status JSON: state, progress, and — when
//	                        done — edges, threshold, timings.
//	GET    /jobs/{id}/network  the edge TSV (409 until done).
//	GET    /jobs/{id}/result   full-precision result JSON (409 until done).
//	GET    /jobs/{id}/support  ensemble support TSV (409 until done, 404
//	                        for a non-ensemble job).
//	GET    /jobs/{id}/events   Server-Sent Events: progress, then one
//	                        terminal event.
//	DELETE /jobs/{id}       cancel a queued or running job.
//	GET    /metrics         Prometheus text-format metrics: queue depth,
//	                        jobs by state, per-phase pipeline seconds,
//	                        kernel counters, job wall-time histogram.
//	GET    /healthz         liveness.
//
// An id that was never issued is 404; an evicted one is 410 with the
// scan's content key. Terminal jobs are evicted from the registry after
// TTL, and the registry never holds more than MaxJobs terminal entries,
// so memory stays bounded under sustained traffic.
//
// Server admission is bounded: at most MaxRunning jobs execute
// concurrently and at most MaxQueued more may wait; past that POST /jobs
// sheds load with 429. When CheckpointDir is set, every (matrix,
// scan-config) submission is assigned a deterministic checkpoint file
// there. Shutdown cancels the running jobs, which flush their completed
// tiles to that file; a restarted server resumes an identical
// resubmission from the checkpoint instead of recomputing it.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
)

// job is one local scan.
type job struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	key    string
	// ckptPath is the job's checkpoint file ("" when checkpointing is
	// off or the engine does not support it).
	ckptPath  string
	geneNames []string

	mu       sync.Mutex
	state    JobState
	err      string
	progress float64
	result   *core.Result
	created  time.Time
	started  time.Time
	finished time.Time
}

func (j *job) ID() string  { return j.id }
func (j *job) Key() string { return j.key }
func (j *job) Cancel()     { j.cancel() }

func (j *job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, Key: j.key, State: j.state, Progress: j.progress, Error: j.err,
		CreatedAt: j.created, EndedAt: j.finished,
	}
}

func (j *job) Done() (*core.Result, []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil
	}
	return j.result, j.geneNames
}

// Server runs scans on this machine behind the job API. Create with
// New, adjust the exported knobs before serving, mount via Handler.
type Server struct {
	Options
	// MaxRunning is the number of jobs executing concurrently
	// (default 1: the pipeline saturates the machine).
	MaxRunning int
	// MaxQueued is the number of additional jobs allowed to wait;
	// admission past MaxRunning+MaxQueued active jobs returns 429
	// (default 8).
	MaxQueued int
	// CheckpointDir, when non-empty, enables crash/shutdown-safe jobs:
	// each submission checkpoints into a deterministic file under the
	// directory, and an identical resubmission resumes from it.
	CheckpointDir string

	api      *API
	initOnce sync.Once

	mu       sync.Mutex
	live     map[string]*job // queued and running jobs
	nextID   int64
	draining bool
	sem      chan struct{}
	// now is the lifecycle clock (a test seam; defaults to time.Now).
	now func() time.Time

	// Pre-registered instruments (hot-path safe: no registry lookups).
	mSubmitted                       *metrics.Counter
	mPairs, mSkipped, mHits, mMisses *metrics.Counter
	mPermEvals                       *metrics.Counter
	mRankFailures, mRecoveryRuns     *metrics.Counter
	mRecoveredTiles                  *metrics.Counter
	mCkptCorrupt, mSpillRetries      *metrics.Counter
	mFaultDelayed, mFaultDropped     *metrics.Counter
	mDPIRemoved, mCMIRemoved         *metrics.Counter
	mEnsBootstraps, mEnsStencils     *metrics.Counter
	mEnsSupportEdges                 *metrics.Counter
	mTerminal                        map[JobState]*metrics.Counter
	hJobSeconds                      *metrics.Histogram
}

// New returns a server with default limits.
func New() *Server {
	s := &Server{
		MaxRunning: 1,
		MaxQueued:  8,
		live:       make(map[string]*job),
		now:        time.Now,
	}
	s.api = NewAPI(s, &s.Options, "tinge_", func() time.Time { return s.now() })
	return s
}

// init finalizes configuration on first use: the run semaphore is
// sized, defaults are filled, and instruments are registered.
func (s *Server) init() {
	s.api.Init()
	s.initOnce.Do(func() {
		if s.MaxRunning < 1 {
			s.MaxRunning = 1
		}
		if s.MaxQueued < 0 {
			s.MaxQueued = 0
		}
		s.sem = make(chan struct{}, s.MaxRunning)
		r := s.Metrics
		s.mSubmitted = r.Counter("tinge_jobs_submitted_total", "Jobs accepted for execution.", nil)
		s.mTerminal = make(map[JobState]*metrics.Counter)
		for _, st := range []JobState{StateDone, StateFailed, StateCanceled} {
			s.mTerminal[st] = r.Counter("tinge_jobs_finished_total",
				"Jobs reaching a terminal state.", metrics.Labels{"state": string(st)})
		}
		s.mPairs = r.Counter("tinge_pairs_evaluated_total", "MI kernel evaluations including permutations.", nil)
		// The scan runs no per-pair permutation test, so the four
		// permutation counters stay 0; they remain for dashboards.
		s.mPermEvals = r.Counter("tinge_perm_evaluations_total", "Per-pair permutation MI evaluations (always 0).", nil)
		s.mSkipped = r.Counter("tinge_permutations_skipped_total", "Permutation evaluations avoided by early exit (always 0).", nil)
		s.mHits = r.Counter("tinge_permcache_hits_total", "Permuted-row cache hits (always 0).", nil)
		s.mMisses = r.Counter("tinge_permcache_misses_total", "Permuted-row cache misses (always 0).", nil)
		s.mRankFailures = r.Counter("tinge_rank_failures_total", "Cluster ranks lost to faults across jobs.", nil)
		s.mRecoveryRuns = r.Counter("tinge_recovery_runs_total", "Cluster recovery re-runs after a rank failure.", nil)
		s.mRecoveredTiles = r.Counter("tinge_recovered_tiles_total", "Pair tiles redistributed to surviving ranks.", nil)
		s.mCkptCorrupt = r.Counter("tinge_checkpoint_corrupt_total", "Corrupt checkpoints handled by starting the job fresh.", nil)
		s.mSpillRetries = r.Counter("tinge_spill_read_retries_total", "Spill reads that failed verification once and succeeded on retry.", nil)
		s.mFaultDelayed = r.Counter("tinge_fault_delayed_messages_total", "Messages delayed by fault injection.", nil)
		s.mFaultDropped = r.Counter("tinge_fault_dropped_messages_total", "Messages dropped by fault injection.", nil)
		s.mDPIRemoved = r.Counter("tinge_dpi_edges_removed_total", "Edges pruned by the DPI filter.", nil)
		s.mCMIRemoved = r.Counter("tinge_cmi_edges_removed_total", "Edges pruned by the CMI successor filter.", nil)
		s.mEnsBootstraps = r.Counter("tinge_ensemble_bootstraps_total", "Bootstrap networks inferred by ensemble jobs.", nil)
		s.mEnsStencils = r.Counter("tinge_ensemble_stencils_reused_total", "B-spline stencils reused from the shared precompute instead of recomputed.", nil)
		s.mEnsSupportEdges = r.Counter("tinge_ensemble_support_edges_total", "Support-matrix cells produced by completed ensemble jobs.", nil)
		s.hJobSeconds = r.Histogram("tinge_job_seconds", "Job wall time from start to terminal state.",
			nil, []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200})
		r.GaugeFunc("tinge_queue_capacity", "Admission bound: max queued plus running jobs.",
			nil, func() float64 { return float64(s.MaxQueued + s.MaxRunning) })
	})
}

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler {
	s.init()
	return s.api.Handler()
}

// Shutdown drains the server for a graceful exit: new submissions get
// 503, queued jobs are canceled, and running jobs either drain to
// completion (no CheckpointDir) or are canceled so they flush their
// progress to their checkpoint files for resume after restart. It
// returns once every job goroutine has exited, or with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error { return s.api.Shutdown(ctx) }

// ParseConfig builds a core.Config from a request's query parameters.
// It is exported because the fleet coordinator accepts the identical
// parameter surface and re-serializes it (ConfigParams) when fanning
// chunk jobs out to workers.
func ParseConfig(r *http.Request) (core.Config, error) {
	return ParseConfigValues(r.URL.Query())
}

// ParseConfigValues is ParseConfig over bare query values.
func ParseConfigValues(q url.Values) (core.Config, error) {
	// DPITolerance's zero value means strict DPI; the query default must
	// stay the paper's 0.1, so start from the unset sentinel and let an
	// explicit dpitolerance=0 request strictness.
	cfg := core.Config{DPITolerance: -1}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*dst = n
		}
		return nil
	}
	for name, dst := range map[string]*int{
		"permutations":  &cfg.Permutations,
		"workers":       &cfg.Workers,
		"order":         &cfg.Order,
		"bins":          &cfg.Bins,
		"tile":          &cfg.TileSize,
		"ranks":         &cfg.Ranks,
		"nullpairs":     &cfg.NullSamplePairs,
		"ckptevery":     &cfg.CheckpointEvery,
		"maxrecoveries": &cfg.MaxRecoveries,
		"panelrows":     &cfg.PanelRows,
		"tilestart":     &cfg.ChunkStart,
		"tilecount":     &cfg.ChunkTiles,
		"bootstraps":    &cfg.Ensemble.Bootstraps,
		"bstart":        &cfg.Ensemble.Start,
		"bcount":        &cfg.Ensemble.Count,
	} {
		if err := intParam(name, dst); err != nil {
			return cfg, err
		}
	}
	// An explicit count below 1 is refused rather than left to
	// Config.Validate, which would quietly run the default 30.
	if q.Get("permutations") != "" && cfg.Permutations < 1 {
		return cfg, fmt.Errorf("bad permutations: %d, want at least 1", cfg.Permutations)
	}
	if v := q.Get("memorybudget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad memorybudget: %v", err)
		}
		cfg.MemoryBudget = b
	}
	floatParam := func(name string, dst *float64) error {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*dst = f
		}
		return nil
	}
	for name, dst := range map[string]*float64{
		"alpha":        &cfg.Alpha,
		"dpitolerance": &cfg.DPITolerance,
		"cmiratio":     &cfg.CMIRatio,
		"subsample":    &cfg.Ensemble.SubsampleFrac,
		"support":      &cfg.Ensemble.SupportCutoff,
	} {
		if err := floatParam(name, dst); err != nil {
			return cfg, err
		}
	}
	if v := q.Get("seed"); v != "" {
		sd, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed: %v", err)
		}
		cfg.Seed = sd
	}
	if v := q.Get("eseed"); v != "" {
		sd, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad eseed: %v", err)
		}
		cfg.Ensemble.Seed = sd
	}
	if v := q.Get("dpi"); v == "1" || v == "true" {
		cfg.DPI = true
	}
	if v := q.Get("cmi"); v == "1" || v == "true" {
		cfg.CMIFilter = true
	}
	if q.Has("prescreen") {
		return cfg, fmt.Errorf("prescreen was removed: the pair prescreen never skipped a pair against permutation-calibrated thresholds")
	}
	switch v := q.Get("engine"); v {
	case "", "host":
		cfg.Engine = core.Host
	case "phi":
		cfg.Engine = core.Phi
	case "cluster":
		cfg.Engine = core.Cluster
	case "hybrid":
		cfg.Engine = core.Hybrid
	case "ooc":
		cfg.Engine = core.OutOfCore
	default:
		return cfg, fmt.Errorf("unknown engine %q", v)
	}
	switch v := q.Get("precision"); v {
	case "", "float64", "64":
		cfg.Precision = core.Float64
	case "float32", "32":
		cfg.Precision = core.Float32
	default:
		return cfg, fmt.Errorf("unknown precision %q", v)
	}
	switch v := q.Get("kernel"); v {
	case "", "bucketed":
		cfg.Kernel = core.KernelBucketed
	case "vec":
		cfg.Kernel = core.KernelVec
	case "scalar":
		cfg.Kernel = core.KernelScalar
	default:
		return cfg, fmt.Errorf("unknown kernel %q", v)
	}
	return cfg, nil
}

// ConfigParams serializes every scan-defining field of cfg back into
// the query-parameter surface ParseConfig reads — the wire format the
// fleet coordinator uses to hand a chunk job to an unmodified worker.
// Round-trip invariant (tested): JobKey(body, parsed(ConfigParams(cfg)))
// == JobKey(body, cfg) for any validated cfg. Scheduling-only knobs
// (workers, checkpoint interval, budgets) are deliberately omitted so
// each worker applies its own machine-local defaults.
func ConfigParams(cfg core.Config) url.Values {
	q := url.Values{}
	setInt := func(name string, v int) {
		if v != 0 {
			q.Set(name, strconv.Itoa(v))
		}
	}
	setInt("order", cfg.Order)
	setInt("bins", cfg.Bins)
	setInt("permutations", cfg.Permutations)
	setInt("nullpairs", cfg.NullSamplePairs)
	setInt("tile", cfg.TileSize)
	setInt("tilestart", cfg.ChunkStart)
	setInt("tilecount", cfg.ChunkTiles)
	if cfg.Alpha != 0 {
		q.Set("alpha", strconv.FormatFloat(cfg.Alpha, 'g', -1, 64))
	}
	if cfg.Seed != 0 {
		q.Set("seed", strconv.FormatUint(cfg.Seed, 10))
	}
	q.Set("engine", cfg.Engine.String())
	if cfg.Precision == core.Float32 {
		q.Set("precision", "float32")
	}
	if cfg.Kernel != core.KernelBucketed {
		q.Set("kernel", cfg.Kernel.String())
	}
	if cfg.DPI {
		q.Set("dpi", "1")
	}
	if cfg.CMIFilter {
		q.Set("cmi", "1")
	}
	// DPITolerance: emit explicitly (0 means strict DPI; the parse
	// default is the unset sentinel, so silence would change meaning).
	q.Set("dpitolerance", strconv.FormatFloat(cfg.DPITolerance, 'g', -1, 64))
	if cfg.CMIRatio != 0 {
		q.Set("cmiratio", strconv.FormatFloat(cfg.CMIRatio, 'g', -1, 64))
	}
	if cfg.Ensemble.Enabled() {
		setInt("bootstraps", cfg.Ensemble.Bootstraps)
		setInt("bstart", cfg.Ensemble.Start)
		setInt("bcount", cfg.Ensemble.Count)
		if cfg.Ensemble.SubsampleFrac != 0 {
			q.Set("subsample", strconv.FormatFloat(cfg.Ensemble.SubsampleFrac, 'g', -1, 64))
		}
		if cfg.Ensemble.SupportCutoff != 0 {
			q.Set("support", strconv.FormatFloat(cfg.Ensemble.SupportCutoff, 'g', -1, 64))
		}
		if cfg.Ensemble.Seed != 0 {
			q.Set("eseed", strconv.FormatUint(cfg.Ensemble.Seed, 10))
		}
	}
	return q
}

// JobKey fingerprints (matrix bytes, scan-affecting config) — the
// content address of a scan. The server uses it as the checkpoint file
// stem, so an identical resubmission maps to the same checkpoint and
// resumes; the fleet coordinator uses the same key for its
// content-addressed result cache and single-flight dedupe, and returns
// it with 410 Gone so a late client can re-hit the cache. The key hashes
// the significance rule, so scans cut under the per-pair permutation
// rule of earlier releases never match a key of this one.
func JobKey(body []byte, cfg core.Config) string {
	h := sha256.New()
	h.Write(body)
	fmt.Fprintf(h, "|%d|%d|%d|%d|%d|%v|%d|%v|%v|%v|%v|%v|%v|%v|%v",
		cfg.Order, cfg.Bins, cfg.Permutations, cfg.NullSamplePairs,
		cfg.TileSize, cfg.Alpha, cfg.Seed, cfg.Engine, cfg.DPI, cfg.Kernel,
		cfg.Precision, checkpoint.RulePooledNull, cfg.DPITolerance, cfg.CMIFilter, cfg.CMIRatio)
	if cfg.ChunkTiles > 0 {
		fmt.Fprintf(h, "|chunk %d+%d", cfg.ChunkStart, cfg.ChunkTiles)
	}
	if cfg.Ensemble.Enabled() {
		// Every ensemble knob changes the scan's output: the bootstrap
		// count and subsample shape the support matrix, the ensemble seed
		// picks the subsets, and the cutoff picks the consensus network.
		fmt.Fprintf(h, "|ens %d %v %d %v",
			cfg.Ensemble.Bootstraps, cfg.Ensemble.SubsampleFrac,
			cfg.Ensemble.Seed, cfg.Ensemble.SupportCutoff)
		if cfg.Ensemble.Count > 0 {
			fmt.Fprintf(h, "|brange %d+%d", cfg.Ensemble.Start, cfg.Ensemble.Count)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Start parses and admits one submission and queues it for a run
// slot. It implements Runner.
func (s *Server) Start(body []byte, cfg core.Config) (Job, error) {
	s.init()
	data, err := expr.StreamTSV(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parse expression matrix: %w", err)
	}
	if data.MissingCount() > 0 {
		data.ImputeRowMean()
	}
	key := JobKey(body, cfg)
	// Partial ensemble runs (fleet bootstrap chunks) are not
	// checkpointable — the bootstrap IS the checkpoint granularity.
	if s.CheckpointDir != "" && cfg.Ensemble.Count == 0 {
		cfg.CheckpointPath = filepath.Join(s.CheckpointDir, key+".ckpt")
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		ctx: ctx, cancel: cancel, key: key, ckptPath: cfg.CheckpointPath,
		state: StateQueued, geneNames: data.Genes,
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("server is %w", ErrDraining)
	}
	if active := len(s.live); active >= s.MaxQueued+s.MaxRunning {
		s.mu.Unlock()
		cancel()
		s.Logger.Warn("job rejected", "active", active, "bound", s.MaxQueued+s.MaxRunning)
		return nil, ErrBusy
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.created = s.now()
	s.live[j.id] = j
	s.api.Go(func() { s.run(j, data, cfg) })
	s.mu.Unlock()

	s.mSubmitted.Inc()
	s.Logger.Info("job queued", "job", j.id,
		"genes", len(data.Genes), "samples", data.Expr.Cols(), "checkpoint", j.ckptPath != "")
	return j, nil
}

// run executes one job: wait for a run slot, infer, record the
// terminal state. It owns the job's context (the cancel func is always
// released) and exports the run's counters on success.
func (s *Server) run(j *job, data *expr.Dataset, cfg core.Config) {
	defer j.cancel()

	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		s.finish(j, StateCanceled, "", nil)
		return
	}
	defer func() { <-s.sem }()
	if j.ctx.Err() != nil {
		s.finish(j, StateCanceled, "", nil)
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.started = s.now()
	j.mu.Unlock()
	s.Logger.Info("job running", "job", j.id)

	// Progress is monotonic: concurrent tile completions may report
	// out of order, and a resumed run restarts the fraction — never
	// move the published value backwards.
	cfg.Progress = func(d, total int) {
		if total <= 0 {
			return
		}
		f := float64(d) / float64(total)
		j.mu.Lock()
		if f > j.progress {
			j.progress = f
		}
		j.mu.Unlock()
	}

	res, err := core.InferContext(j.ctx, data.Expr, cfg)
	switch {
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, "", nil)
	case err != nil:
		s.finish(j, StateFailed, err.Error(), nil)
	default:
		s.finish(j, StateDone, "", res)
	}
}

// finish records a job's terminal state, exports its metrics, and
// cleans up its checkpoint when the result is final. The job frees its
// admission slot before it reports the terminal state, so a client that
// saw it end can submit again at once.
func (s *Server) finish(j *job, st JobState, errMsg string, res *core.Result) {
	s.mu.Lock()
	delete(s.live, j.id)
	s.mu.Unlock()
	now := s.now()
	j.mu.Lock()
	j.state = st
	j.err = errMsg
	j.finished = now
	started := j.started
	if res != nil {
		j.progress = 1
		j.result = res
	}
	j.mu.Unlock()

	wall := 0.0
	if !started.IsZero() {
		wall = now.Sub(started).Seconds()
	}
	s.mTerminal[st].Inc()
	s.hJobSeconds.Observe(wall)
	if res != nil {
		// tinge_pairs_evaluated_total historically counted observed plus
		// permutation evaluations; keep that meaning now the Result
		// splits them.
		s.mPairs.Add(float64(res.PairsEvaluated + res.PermEvaluations))
		s.mPermEvals.Add(float64(res.PermEvaluations))
		s.mSkipped.Add(float64(res.PermutationsSkipped))
		s.mHits.Add(float64(res.PermCacheHits))
		s.mMisses.Add(float64(res.PermCacheMisses))
		s.mRankFailures.Add(float64(res.RankFailures))
		s.mRecoveryRuns.Add(float64(res.RecoveryRuns))
		s.mRecoveredTiles.Add(float64(res.RecoveredTiles))
		s.mCkptCorrupt.Add(float64(res.CheckpointRecoveries))
		s.mSpillRetries.Add(float64(res.SpillReadRetries))
		s.mFaultDelayed.Add(float64(res.FaultDelayedMessages))
		s.mFaultDropped.Add(float64(res.FaultDroppedMessages))
		s.mDPIRemoved.Add(float64(res.DPIEdgesRemoved))
		s.mCMIRemoved.Add(float64(res.CMIEdgesRemoved))
		s.mEnsBootstraps.Add(float64(res.EnsembleBootstrapsRun))
		s.mEnsStencils.Add(float64(res.EnsembleStencilsReused))
		if res.Ensemble != nil {
			s.mEnsSupportEdges.Add(float64(res.Ensemble.Len()))
		}
		for phase, secs := range res.Timer.Seconds() {
			s.Metrics.Counter("tinge_phase_seconds_total",
				"Pipeline wall seconds by phase, summed over jobs.",
				metrics.Labels{"phase": phase}).Add(secs)
		}
		// A finished network supersedes its checkpoint (and the
		// rotated last-good copy beside it).
		if j.ckptPath != "" {
			checkpoint.Remove(j.ckptPath)
		}
	}
	attrs := []any{"job", j.id, "state", string(st), "wall_s", wall}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if res != nil {
		attrs = append(attrs, "edges", res.Network.Len(), "threshold", res.Threshold,
			"evals", res.PairsEvaluated, "perm_evals", res.PermEvaluations)
	}
	s.Logger.Info("job finished", attrs...)
}

// Drain refuses new submissions, cancels queued jobs, and cancels
// running ones when they can resume from a checkpoint. It implements
// Runner.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	var toCancel []*job
	for _, j := range s.live {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == StateQueued || s.CheckpointDir != "" {
			toCancel = append(toCancel, j)
		}
	}
	s.mu.Unlock()
	s.Logger.Info("shutdown draining", "canceling", len(toCancel), "checkpoint", s.CheckpointDir != "")
	for _, j := range toCancel {
		j.cancel()
	}
}
