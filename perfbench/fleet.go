package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fleet"
	"repro/internal/grn"
	"repro/internal/perm"
	"repro/internal/server"
)

const (
	fleetWorkers  = 2 // worker servers behind the coordinator
	fleetClients  = 2 // closed-loop client goroutines
	resubmitEvery = 4 // every this many-th submission repeats a completed one
	workerMaxJobs = 16
	// A fleet starts in about a millisecond, so its set-up is repeated
	// more often than a batch engine's for a steady median.
	fleetSetupRounds = 21
	resultPoll       = 10 * time.Millisecond
	jobTimeout       = 60 * time.Second
)

// fleetSys is one coordinator with its workers, each served over
// loopback HTTP, with the benchmark's middleware around every handler.
type fleetSys struct {
	workers   []*server.Server
	workerSrv []*httptest.Server
	coord     *fleet.Coordinator
	coordSrv  *httptest.Server
}

// startFleet brings a fleet to ready: fleetWorkers servers running one
// job at a time, a coordinator over them, and /healthz answering 200 on
// all of them.
func startFleet(log *httpLog, client *http.Client) (*fleetSys, error) {
	f := &fleetSys{}
	var urls []string
	for range fleetWorkers {
		s := server.New()
		s.MaxRunning = 1
		// Bound the finished chunk jobs a worker keeps, so that memory
		// does not grow with the number of jobs a run completes.
		s.MaxJobs = workerMaxJobs
		ts := httptest.NewServer(log.wrap("worker", s.Handler()))
		f.workers = append(f.workers, s)
		f.workerSrv = append(f.workerSrv, ts)
		urls = append(urls, ts.URL)
	}
	f.coord = fleet.New(urls)
	f.coordSrv = httptest.NewServer(log.wrap("coordinator", f.coord.Handler()))
	for _, u := range append(urls, f.coordSrv.URL) {
		resp, err := client.Get(u + "/healthz")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("healthz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.stop()
			return nil, fmt.Errorf("healthz %s: %s", u, resp.Status)
		}
	}
	return f, nil
}

// stop shuts the coordinator down, then the workers, and waits for all
// of their goroutines.
func (f *fleetSys) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.coordSrv != nil {
		f.coordSrv.Close()
		errs = append(errs, f.coord.Shutdown(ctx))
	}
	for i, ts := range f.workerSrv {
		ts.Close()
		errs = append(errs, f.workers[i].Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// scrape reads a /metrics page into series → value, keyed by the series
// as printed (name plus labels).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// scrapeAll scrapes the coordinator and every worker and sums equal
// series across them.
func (f *fleetSys) scrapeAll(client *http.Client) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, ts := range append([]*httptest.Server{f.coordSrv}, f.workerSrv...) {
		m, err := scrape(client, ts.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// httpRec is one request the middleware saw.
type httpRec struct {
	layer, route, job string
	start, end        float64 // seconds on the recorder's clock
	reqBytes          int64
	respBytes         int64
	bodyHash          uint64 // POST /jobs only
}

// httpLog is the benchmark-side middleware around the coordinator's and
// the workers' handlers. While tracing is on it records each request
// and a span for it; otherwise it passes requests straight through.
type httpLog struct {
	rec  *recorder
	mu   sync.Mutex
	recs []httpRec
	runs map[string]string // worker job id → run id of its matrix
}

func (l *httpLog) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.rec.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		route, job := classify(r)
		// Each worker numbers its own jobs, so a job is named by the
		// server it runs on too.
		hr := httpRec{layer: layer, route: route, job: r.Host + "/" + job}
		run := r.Header.Get("X-Perfbench-Run")
		if route == "submit" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			hr.reqBytes = int64(len(body))
			hr.bodyHash = hashBody(body)
			run = runID(hr.bodyHash)
		} else if run == "" {
			l.mu.Lock()
			run = l.runs[hr.job]
			l.mu.Unlock()
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		cw := &captureWriter{ResponseWriter: w}
		end, _ := l.rec.begin(layer+" "+route, run, parent)
		hr.start = time.Since(l.rec.epoch).Seconds()
		h.ServeHTTP(cw, r)
		hr.end = time.Since(l.rec.epoch).Seconds()
		end()
		hr.respBytes = cw.n
		if route == "submit" {
			var resp struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(cw.head.Bytes(), &resp) == nil {
				hr.job = r.Host + "/" + resp.ID
			}
		}
		l.mu.Lock()
		if route == "submit" && layer == "worker" {
			l.runs[hr.job] = run
		}
		l.recs = append(l.recs, hr)
		l.mu.Unlock()
	})
}

// classify names a request's route and the job id in its path.
func classify(r *http.Request) (route, job string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "submit", ""
	case len(parts) == 2 && parts[0] == "jobs":
		return "status", parts[1]
	case len(parts) == 3 && parts[0] == "jobs" && parts[2] == "result":
		return "result", parts[1]
	}
	return strings.Trim(r.URL.Path, "/"), ""
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func runID(hash uint64) string { return fmt.Sprintf("matrix-%016x", hash) }

// captureWriter counts the response bytes and keeps the first few for
// the submit response's job id.
type captureWriter struct {
	http.ResponseWriter
	n    int64
	head bytes.Buffer
}

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.head.Len() < 512 {
		w.head.Write(b[:min(len(b), 512-w.head.Len())])
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// stream is the seeded submission stream: every resubmitEvery-th
// submission repeats a seeded choice among the matrices that already
// completed, and every other one is a fresh matrix. Fresh matrix idx is
// the run's dataset with ".idx" appended to every gene name: new bytes,
// so a new content address and a full scan, but the same numbers, so
// every scan does the same work and one single-process reference checks
// them all.
type stream struct {
	mu        sync.Mutex
	rng       *perm.RNG
	submitted int
	fresh     int // fresh matrices handed out
	base      *expr.Dataset
	completed []int
}

// next returns the matrix index and TSV body of the next submission.
func (s *stream) next() (int, []byte, error) {
	s.mu.Lock()
	s.submitted++
	var idx int
	if s.submitted%resubmitEvery == 0 && len(s.completed) > 0 {
		idx = s.completed[s.rng.Intn(len(s.completed))]
	} else {
		idx = s.fresh
		s.fresh++
	}
	s.mu.Unlock()
	body, err := s.body(idx)
	return idx, body, err
}

// body writes fresh matrix idx. Bodies are written again for each
// submission rather than kept, so the benchmark's own memory does not
// grow with the number of jobs a run completes.
func (s *stream) body(idx int) ([]byte, error) {
	relabelled := *s.base
	relabelled.Genes = make([]string, len(s.base.Genes))
	for g, name := range s.base.Genes {
		relabelled.Genes[g] = name + "." + strconv.Itoa(idx)
	}
	return datasetTSV(&relabelled)
}

func (s *stream) done(idx int, hit bool) {
	if hit {
		return
	}
	s.mu.Lock()
	s.completed = append(s.completed, idx)
	s.mu.Unlock()
}

// fleetJob is one submission from submit to /result 200.
type fleetJob struct {
	idx        int
	hash       uint64 // of the matrix body
	hit        bool
	traced     bool
	id         string
	start, end float64 // seconds on the recorder's clock
	res        *server.ResultResponse
	err        error
}

// submit posts one job to the coordinator and polls its full-precision
// /result until it answers 200.
func submit(client *http.Client, base, query string, body []byte, rec *recorder, j *fleetJob) {
	j.hash = hashBody(body)
	end, span := rec.begin("client job", runID(j.hash), 0)
	defer end()
	j.start = time.Since(rec.epoch).Seconds()
	defer func() { j.end = time.Since(rec.epoch).Seconds() }()
	req, err := http.NewRequest(http.MethodPost, base+"/jobs?"+query, bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	req.Header.Set("X-Perfbench-Span", strconv.FormatInt(span, 10))
	req.Header.Set("X-Perfbench-Run", runID(j.hash))
	resp, err := client.Do(req)
	if err != nil {
		j.err = err
		return
	}
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if err == nil {
		err = json.Unmarshal(b, &sub)
	}
	if err != nil {
		j.err = err
		return
	}
	j.id, j.hit = sub.ID, sub.Cached
	deadline := time.Now().Add(jobTimeout)
	for {
		req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+j.id+"/result", nil)
		if err != nil {
			j.err = err
			return
		}
		req.Header.Set("X-Perfbench-Span", strconv.FormatInt(span, 10))
		req.Header.Set("X-Perfbench-Run", runID(j.hash))
		resp, err := client.Do(req)
		if err != nil {
			j.err = err
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			j.err = err
			return
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var res server.ResultResponse
			if err := json.Unmarshal(b, &res); err != nil {
				j.err = fmt.Errorf("decode result: %w", err)
				return
			}
			j.res = &res
			return
		case resp.StatusCode != http.StatusConflict || !bytes.Contains(b, []byte("job is running")) && !bytes.Contains(b, []byte("job is queued")):
			j.err = fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(b))
			return
		case time.Now().After(deadline):
			j.err = fmt.Errorf("job %s not done after %v", j.id, jobTimeout)
			return
		}
		time.Sleep(resultPoll)
	}
}

func runFleet(w workload, opts runOpts, rec *recorder) (*report, error) {
	cfg := w.cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	query := server.ConfigParams(cfg).Encode()
	transport := &http.Transport{MaxIdleConnsPerHost: fleetClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	log := &httpLog{rec: rec, runs: map[string]string{}}

	var sys *fleetSys
	var setups []float64
	for k := range fleetSetupRounds {
		start := time.Now()
		f, err := startFleet(log, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < fleetSetupRounds-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		} else {
			sys = f
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop()
		}
	}()

	base, err := generate(w.gen, perm.NewRNG(opts.seed))
	if err != nil {
		return nil, err
	}
	st := &stream{rng: perm.NewRNG(opts.seed).Split(0xF1EE7), base: base}
	// Every result must equal a single-process core.Infer run of its
	// matrix bit for bit.
	chk, err := newChecker(base.Expr, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := core.Infer(base.Expr, cfg)
	if err != nil {
		return nil, fmt.Errorf("single-process reference: %w", err)
	}
	chk.ref = &network{edges: ref.Network.Edges(), threshold: ref.Threshold}
	runtime.GC()
	debug.FreeOSMemory()
	rssNote := ""
	if err := resetPeakRSS(); err != nil {
		rssNote = "; peak RSS includes set-up: " + err.Error()
	}

	// The traced run measures its first half untraced and its second
	// half traced; the untraced half gives the tracing overhead.
	half := opts.seconds / 2
	var mid map[string]float64
	var midCPU float64
	var toggle sync.Once
	var toggleErr error
	window := time.Now()
	var mu sync.Mutex
	var jobs []*fleetJob
	var wg sync.WaitGroup
	for range fleetClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(window) < opts.seconds {
				if opts.trace && time.Since(window) >= half {
					toggle.Do(func() {
						mid, toggleErr = sys.scrapeAll(client)
						midCPU = cpuSeconds()
						rec.on.Store(true)
					})
				}
				j := &fleetJob{traced: rec.enabled()}
				idx, body, err := st.next()
				if err != nil {
					j.err = err
				} else {
					j.idx = idx
					submit(client, sys.coordSrv.URL, query, body, rec, j)
					if j.err == nil {
						st.done(idx, j.hit)
					}
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := 0.0
	for _, j := range jobs {
		elapsed = max(elapsed, j.end)
	}
	elapsed -= window.Sub(rec.epoch).Seconds()
	rec.on.Store(false)
	endCPU := cpuSeconds()
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if toggleErr != nil {
		return nil, toggleErr
	}
	final, err := sys.scrapeAll(client)
	if err != nil {
		return nil, err
	}
	// The coordinator's own result of each traced fresh job carries its
	// merge-side filter timings.
	dpi := map[string]float64{}
	for _, j := range jobs {
		if j.traced && !j.hit && j.err == nil {
			res, err := sys.coord.Wait(context.Background(), j.id)
			if err != nil {
				return nil, err
			}
			dpi[j.id] = res.Timer.Get("dpi").Seconds()
		}
	}
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("stop fleet: %w", err)
	}

	failed, hits := 0, 0
	var lat, latTraced, latUntraced, hitLat []float64
	var good *fleetJob
	for _, j := range jobs {
		if j.err == nil {
			j.err = chk.check(resultNetwork(j.res))
		}
		if j.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s job %s (matrix %d): %v\n", w.name, j.id, j.idx, j.err)
			continue
		}
		if good == nil {
			good = j
		}
		l := j.end - j.start
		lat = append(lat, l)
		if j.traced {
			latTraced = append(latTraced, l)
		} else {
			latUntraced = append(latUntraced, l)
		}
		if j.hit {
			hits++
			if j.traced {
				hitLat = append(hitLat, l)
			}
		}
	}
	correct := failed == 0 && good != nil
	if good != nil {
		if err := chk.selfTest(resultNetwork(good.res)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			correct = false
		}
	}
	rep := &report{Correct: correct, Attempted: len(jobs), Failed: failed}
	rep.notes = append(rep.notes, fmt.Sprintf("jobs=%d failed=%d failed_ratio=%g cache_hits=%d",
		len(jobs), failed, ratio(float64(failed), float64(len(jobs))), hits))
	if good == nil {
		rep.Metrics = metricSet(endToEndUnits, nil)
		if opts.trace {
			rep.Metrics = metricSet(perLayerUnits, nil)
		}
		return rep, nil
	}

	if !opts.trace {
		tailV, tailP := tail(lat)
		rep.Metrics = metricSet(endToEndUnits, map[string]float64{
			"wall_s":      median(lat),
			"f1":          ref.Network.ScoreAgainst(base.TrueEdgeSet()).F1,
			"jobs_per_s":  float64(len(lat)) / elapsed,
			"job_tail_s":  tailV,
			"peak_rss_mb": peak,
			"setup_s":     median(setups),
		})
		rep.notes = append(rep.notes,
			fmt.Sprintf("wall_s is job_p50_s, the median submit-to-/result latency of %d jobs; job_tail_s is their p%.1f", len(lat), tailP),
			fmt.Sprintf("jobs_per_s counts %d jobs over %.2f s from %d closed-loop clients", len(lat), elapsed, fleetClients),
			fmt.Sprintf("setup_s is the median of %d fleet start-ups%s", len(setups), rssNote))
		return rep, nil
	}

	vals := fleetLayers(jobs, log.snapshot(), mid, final, dpi)
	vals["fleet.hit_latency_s"] = median(hitLat)
	vals["fleet.cache_hit_ratio"] = ratio(final["tinge_cache_hits_total"], final["tinge_cache_hits_total"]+final["tinge_cache_misses_total"])
	vals["trace.overhead_s"] = median(latTraced) - median(latUntraced)
	vals["proc.cpu_s"] = (endCPU - midCPU) / float64(max(len(latTraced), 1))

	// One matrix is parsed by the coordinator and once per chunk by a
	// worker; the parse cost per job is derived from timing
	// expr.StreamTSV on a job's body here.
	body, err := st.body(good.idx)
	if err != nil {
		return nil, err
	}
	var parses []float64
	for range 5 {
		start := time.Now()
		if _, err := expr.StreamTSV(bytes.NewReader(body)); err != nil {
			return nil, err
		}
		parses = append(parses, time.Since(start).Seconds())
	}
	perJob := vals["fleet.chunks_per_job"] + 1
	vals["expr.ingest_s"] = median(parses) * perJob
	vals["expr.ingest_bytes"] = float64(len(body)) * perJob

	addProbe(vals, probeKernels(base.Expr, cfg, opts.seed), runtime.GOMAXPROCS(0))
	rep.Metrics = metricSet(perLayerUnits, vals)
	rep.notes = append(rep.notes, fmt.Sprintf("traced half: %d jobs; untraced half: %d jobs", len(latTraced), len(latUntraced)))
	return rep, nil
}

func (l *httpLog) snapshot() []httpRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]httpRec(nil), l.recs...)
}

// resultNetwork is the network a /result response carries.
func resultNetwork(r *server.ResultResponse) network {
	es := make([]grn.Edge, len(r.Edges))
	for k, e := range r.Edges {
		es[k] = grn.Edge{I: int(e[0]), J: int(e[1]), Weight: e[2]}
	}
	return network{edges: es, threshold: r.Threshold}
}

// fleetLayers derives the service and fleet layer metrics of the traced
// half from the middleware's records, the /metrics deltas between the
// middle and the end of the run, and the traced fresh jobs' results.
func fleetLayers(jobs []*fleetJob, recs []httpRec, mid, final map[string]float64, dpi map[string]float64) map[string]float64 {
	delta := func(series string) float64 { return final[series] - mid[series] }
	dur := func(layer, route string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.layer == layer && r.route == route {
				xs = append(xs, r.end-r.start)
			}
		}
		return xs
	}

	fresh := map[uint64]*fleetJob{}
	var pairEvals, permEvals, skipped, hitRatio, raw, removed, dpiS []float64
	for _, j := range jobs {
		if !j.traced || j.hit || j.err != nil {
			continue
		}
		fresh[j.hash] = j
		r := j.res
		pairEvals = append(pairEvals, float64(r.PairsEvaluated))
		permEvals = append(permEvals, float64(r.PermEvaluations))
		skipped = append(skipped, float64(r.PermutationsSkipped))
		hitRatio = append(hitRatio, ratio(float64(r.PermCacheHits), float64(r.PermCacheHits+r.PermCacheMisses)))
		raw = append(raw, float64(r.RawEdges))
		removed = append(removed, float64(r.RawEdges-len(r.Edges)))
		dpiS = append(dpiS, dpi[j.id])
	}

	// The chunk jobs the workers ran for those matrices.
	type chunk struct {
		hash        uint64
		submitStart float64
		resultEnd   float64
		polls       int
	}
	chunks := map[string]*chunk{}
	upload := 0.0
	for _, r := range recs {
		if r.layer == "worker" && r.route == "submit" && fresh[r.bodyHash] != nil {
			chunks[r.job] = &chunk{hash: r.bodyHash, submitStart: r.start}
			upload += float64(r.reqBytes)
		}
	}
	var resultBytes []float64
	for _, r := range recs {
		c := chunks[r.job]
		if r.layer != "worker" || c == nil {
			continue
		}
		switch r.route {
		case "status":
			c.polls++
		case "result":
			c.resultEnd = r.end
			resultBytes = append(resultBytes, float64(r.respBytes))
		}
	}
	var spans []float64
	polls, done := 0, 0
	lastChunk := map[uint64]float64{}
	for _, c := range chunks {
		if c.resultEnd == 0 {
			continue
		}
		done++
		polls += c.polls
		spans = append(spans, c.resultEnd-c.submitStart)
		lastChunk[c.hash] = max(lastChunk[c.hash], c.resultEnd)
	}
	var merges []float64
	for h, j := range fresh {
		if t, ok := lastChunk[h]; ok {
			merges = append(merges, j.end-t)
		}
	}

	perJob := ratio(float64(len(chunks)), float64(len(fresh)))
	scan := ratio(delta("tinge_job_seconds_sum"), delta("tinge_job_seconds_count"))
	phase := func(name string) float64 {
		return ratio(delta(`tinge_phase_seconds_total{phase="`+name+`"}`), delta("tinge_job_seconds_count")) * perJob
	}
	return map[string]float64{
		"mat.normalize_s":      phase("normalize"),
		"bspline.precompute_s": phase("precompute"),
		"perm.threshold_s":     phase("threshold"),
		"mi.scan_s":            phase("mi"),

		"mi.pair_evals":          median(pairEvals),
		"mi.perm_evals":          median(permEvals),
		"mi.perm_skipped":        median(skipped),
		"mi.permcache_hit_ratio": median(hitRatio),
		"grn.raw_edges":          median(raw),
		"grn.dpi_removed":        median(removed),
		"grn.dpi_s":              median(dpiS),

		"server.submit_s":     median(dur("worker", "submit")),
		"server.scan_s":       scan,
		"server.queue_wait_s": median(spans) - scan,
		"server.result_s":     median(dur("worker", "result")),
		"server.result_bytes": mean(resultBytes),

		"fleet.submit_s":             median(dur("coordinator", "submit")),
		"fleet.chunk_span_s":         median(spans),
		"fleet.chunks_per_job":       perJob,
		"fleet.upload_bytes_per_job": ratio(upload, float64(len(fresh))),
		"fleet.polls_per_chunk":      ratio(float64(polls), float64(done)),
		"fleet.poll_useful_ratio":    ratio(float64(done), float64(polls)),
		"fleet.merge_s":              median(merges),
	}
}
