package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/perm"
	"repro/tinge"
)

// setupRounds is how many times a run brings the system up; setup_s is
// the median.
const setupRounds = 7

// warmGenes is the size of the slice of the input the batch set-up runs
// through the pipeline once.
const warmGenes = 64

// batchOp is one pipeline pass: TSV bytes in, network TSV bytes out.
type batchOp struct {
	wall float64 // seconds
	cpu  float64 // process CPU seconds spent during the pass
	res  *core.Result
	tsv  []byte
}

// pipeline runs one workload's configuration on TSV bytes.
type pipeline struct {
	cfg core.Config
	rec *recorder
}

// run feeds in through the workload's entry points: expr.StreamTSV then
// core.Infer for the resident engines, tinge.IngestExpressionTSV then
// core.InferStore for the out-of-core one; grn.Network.WriteTSV writes
// the result. Each call gets a span under the pass's root span.
func (p pipeline) run(in []byte, runID string) (batchOp, error) {
	endOp, root := p.rec.begin("op", runID, 0)
	defer endOp()
	cpu0 := cpuSeconds()
	start := time.Now()
	var res *core.Result
	if p.cfg.Engine == core.OutOfCore {
		// The store's three fixed buffers count against the budget, as
		// in core.Infer's own ingest.
		cols := bytes.Count(in[:bytes.IndexByte(in, '\n')], []byte("\t"))
		budget := p.cfg.MemoryBudget - 3*int64(p.cfg.PanelRows)*int64(cols)*4
		end, _ := p.rec.begin("tinge.IngestExpressionTSV", runID, root)
		store, _, err := tinge.IngestExpressionTSV(bytes.NewReader(in), p.cfg.SpillDir, p.cfg.PanelRows, max(budget, 0))
		end()
		if err != nil {
			return batchOp{}, fmt.Errorf("ingest: %w", err)
		}
		end, _ = p.rec.begin("core.InferStore", runID, root)
		res, err = core.InferStore(store, p.cfg)
		end()
		if cerr := store.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close panel store: %w", cerr)
		}
		if err != nil {
			return batchOp{}, err
		}
	} else {
		end, _ := p.rec.begin("expr.StreamTSV", runID, root)
		data, err := expr.StreamTSV(bytes.NewReader(in))
		end()
		if err != nil {
			return batchOp{}, fmt.Errorf("ingest: %w", err)
		}
		end, _ = p.rec.begin("core.Infer", runID, root)
		res, err = core.Infer(data.Expr, p.cfg)
		end()
		if err != nil {
			return batchOp{}, err
		}
	}
	var out bytes.Buffer
	end, _ := p.rec.begin("grn.WriteTSV", runID, root)
	err := res.Network.WriteTSV(&out, nil)
	end()
	if err != nil {
		return batchOp{}, fmt.Errorf("write network: %w", err)
	}
	return batchOp{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, res: res, tsv: out.Bytes()}, nil
}

// setup brings a batch engine to ready: it validates the configuration,
// sizes the out-of-core memory budget at its floor, and runs the first
// warmGenes genes of the input through the pipeline once.
func setup(base core.Config, genes, samples int, warm []byte) (pipeline, error) {
	cfg := base
	if err := cfg.Validate(); err != nil {
		return pipeline{}, err
	}
	if cfg.Engine == core.OutOfCore {
		budget, err := core.MinMemoryBudget(genes, samples, cfg)
		if err != nil {
			return pipeline{}, err
		}
		cfg.MemoryBudget = budget
	}
	p := pipeline{cfg: cfg}
	if _, err := p.run(warm, "setup"); err != nil {
		return pipeline{}, fmt.Errorf("warm-up: %w", err)
	}
	return p, nil
}

func runBatch(w workload, opts runOpts, rec *recorder) (*report, error) {
	data, err := generate(w.gen, perm.NewRNG(opts.seed))
	if err != nil {
		return nil, err
	}
	in, err := datasetTSV(data)
	if err != nil {
		return nil, err
	}
	warm, err := datasetTSV(data.Subset(warmGenes))
	if err != nil {
		return nil, err
	}
	base := w.cfg
	base.SpillDir = opts.spillDir

	chk, err := newChecker(data.Expr, base)
	if err != nil {
		return nil, err
	}
	if base.Engine != core.Host {
		// The out-of-core and cluster engines must reproduce the host
		// engine bit for bit on the same input and configuration.
		hostCfg := w.cfg
		hostCfg.Engine = core.Host
		ref, err := core.Infer(data.Expr, hostCfg)
		if err != nil {
			return nil, fmt.Errorf("host reference: %w", err)
		}
		chk.ref = &network{edges: ref.Network.Edges(), threshold: ref.Threshold}
	}

	var p pipeline
	var setups []float64
	for range setupRounds {
		start := time.Now()
		p, err = setup(base, data.N(), data.M(), warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p.rec = rec

	runtime.GC()
	debug.FreeOSMemory()
	rssNote := ""
	if err := resetPeakRSS(); err != nil {
		rssNote = "; peak RSS includes set-up: " + err.Error()
	}

	var walls, tracedWalls, tracedCPU []float64
	var traced []*core.Result
	var first *network
	var last *core.Result
	attempted, failed := 0, 0
	window := time.Now()
	// A traced run alternates untraced and traced passes and makes at
	// least one of each.
	for i := 0; time.Since(window) < opts.seconds || (opts.trace && i < 2); i++ {
		tracing := opts.trace && i%2 == 1
		rec.on.Store(tracing)
		op, err := p.run(in, "op-"+strconv.Itoa(i))
		rec.on.Store(false)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, i, err)
			continue
		}
		out := network{tsv: op.tsv, edges: op.res.Network.Edges(), threshold: op.res.Threshold}
		if err := chk.check(out); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: wrong network: %v\n", w.name, i, err)
			continue
		}
		if chk.ref == nil {
			// The host engine is its own reference: every later pass of
			// the run must reproduce the first bit for bit.
			chk.ref = &network{edges: out.edges, threshold: out.threshold}
		}
		if first == nil {
			first = &out
		}
		last = op.res
		if tracing {
			tracedWalls = append(tracedWalls, op.wall)
			tracedCPU = append(tracedCPU, op.cpu)
			traced = append(traced, op.res)
		} else {
			walls = append(walls, op.wall)
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	correct := failed == 0 && first != nil
	if first != nil {
		if err := chk.selfTest(*first); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			correct = false
		}
	}
	rep := &report{Correct: correct, Attempted: attempted, Failed: failed}
	rep.notes = append(rep.notes,
		fmt.Sprintf("ops=%d failed=%d failed_ratio=%g", attempted, failed, ratio(float64(failed), float64(attempted))))
	if last == nil || opts.trace && (len(traced) == 0 || len(walls) == 0) {
		rep.Correct = false
		rep.Metrics = metricSet(endToEndUnits, nil)
		if opts.trace {
			rep.Metrics = metricSet(perLayerUnits, nil)
		}
		return rep, nil
	}
	if !opts.trace {
		tailV, tailP := tail(walls)
		rep.Metrics = metricSet(endToEndUnits, map[string]float64{
			"wall_s":      median(walls),
			"f1":          last.Network.ScoreAgainst(data.TrueEdgeSet()).F1,
			"jobs_per_s":  1 / mean(walls),
			"job_tail_s":  tailV,
			"peak_rss_mb": peak,
			"setup_s":     median(setups),
		})
		rep.notes = append(rep.notes,
			fmt.Sprintf("wall_s is the median of %d passes (job_p50_s); job_tail_s is their p%.0f; passes took %.3f s", len(walls), tailP, walls),
			fmt.Sprintf("setup_s is the median of %d set-ups%s", len(setups), rssNote))
		return rep, nil
	}
	vals := batchLayers(traced, tracedCPU, rec.snapshot())
	vals["expr.ingest_bytes"] = float64(len(in))
	vals["trace.overhead_s"] = median(tracedWalls) - median(walls)
	pr := probeKernels(data.Expr, p.cfg, opts.seed)
	addProbe(vals, pr, runtime.GOMAXPROCS(0))
	rep.Metrics = metricSet(perLayerUnits, vals)
	rep.notes = append(rep.notes, fmt.Sprintf("per-layer times are medians of %d traced passes; %d untraced passes give the overhead", len(traced), len(walls)))
	return rep, nil
}

// batchLayers derives the per-layer metrics of a batch workload from
// the traced passes' results and spans.
func batchLayers(res []*core.Result, cpu []float64, spans []span) map[string]float64 {
	self := selfTimes(spans)
	phase := func(names ...string) float64 {
		var xs []float64
		for _, r := range res {
			t := 0.0
			for _, n := range names {
				t += r.Timer.Get(n).Seconds()
			}
			xs = append(xs, t)
		}
		return median(xs)
	}
	last := res[len(res)-1]
	return map[string]float64{
		"expr.ingest_s":           median(append(self["expr.StreamTSV"], self["tinge.IngestExpressionTSV"]...)),
		"mat.normalize_s":         phase("normalize"),
		"bspline.precompute_s":    phase("precompute"),
		"perm.threshold_s":        phase("threshold"),
		"mi.scan_s":               phase("mi", "threshold+mi(cluster)"),
		"mi.pair_evals":           float64(last.PairsEvaluated),
		"mi.perm_evals":           float64(last.PermEvaluations),
		"mi.perm_skipped":         float64(last.PermutationsSkipped),
		"mi.permcache_hit_ratio":  ratio(float64(last.PermCacheHits), float64(last.PermCacheHits+last.PermCacheMisses)),
		"core.infer_s":            median(append(self["core.Infer"], self["core.InferStore"]...)),
		"core.imbalance":          last.Imbalance,
		"core.peak_tile_bytes":    float64(last.PeakTileBytes),
		"panelstore.loads":        float64(last.PanelLoads),
		"panelstore.hit_ratio":    ratio(float64(last.PanelHits), float64(last.PanelHits+last.PanelLoads)),
		"panelstore.bytes_loaded": float64(last.PanelBytesLoaded),
		"panelstore.evictions":    float64(last.PanelEvictions),
		"panelstore.peak_bytes":   float64(last.StorePeakBytes),
		"grn.dpi_s":               phase("dpi"),
		"grn.cmi_s":               phase("cmi"),
		"grn.write_s":             median(self["grn.WriteTSV"]),
		"grn.raw_edges":           float64(last.RawEdges),
		"grn.dpi_removed":         float64(last.DPIEdgesRemoved),
		"grn.cmi_removed":         float64(last.CMIEdgesRemoved),
		"mpi.messages":            float64(last.Messages),
		"mpi.traffic_bytes":       float64(last.TrafficBytes),
		"proc.cpu_s":              median(cpu),
	}
}

// addProbe adds the kernel probe's costs and the split of the mi phase
// they imply. The split is derived: evaluations times cost per
// evaluation, spread over the procs CPUs the engine's workers share.
func addProbe(vals map[string]float64, pr probeResult, procs int) {
	vals["mi.observed_ns_per_eval"] = pr.observedNs
	vals["mi.perm_ns_per_eval"] = pr.permNs
	vals["mi.observed_s_est"] = pr.observedNs * vals["mi.pair_evals"] / 1e9 / float64(procs)
	vals["mi.perm_s_est"] = pr.permNs * vals["mi.perm_evals"] / 1e9 / float64(procs)
}
