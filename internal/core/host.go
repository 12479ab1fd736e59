package core

import (
	"context"
	"fmt"

	"repro/internal/bspline"
	"repro/internal/checkpoint"
	"repro/internal/tile"
)

func fingerprint(wm *bspline.WeightMatrix, cfg Config) checkpoint.Fingerprint {
	return fingerprintDims(wm.Genes, wm.Samples, cfg)
}

// fingerprintDims is the checkpoint fingerprint from bare dimensions.
// The out-of-core scan shares it so its checkpoints are byte-compatible
// with the resident engines': a killed OutOfCore run can resume from a
// Host checkpoint and vice versa.
func fingerprintDims(genes, samples int, cfg Config) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Genes:           genes,
		Samples:         samples,
		Order:           cfg.Order,
		Bins:            cfg.Bins,
		Permutations:    cfg.Permutations,
		NullSamplePairs: cfg.NullSamplePairs,
		TileSize:        cfg.TileSize,
		Alpha:           cfg.Alpha,
		Seed:            cfg.Seed,
		Precision:       uint8(cfg.Precision),
		Bootstraps:      cfg.Ensemble.Bootstraps,
		SubsampleFrac:   cfg.Ensemble.SubsampleFrac,
		EnsembleSeed:    cfg.Ensemble.Seed,
		Rule:            checkpoint.RulePooledNull,
	}
}

// scanKit is the resident host pool's scan apparatus: one kernel
// (estimator + permutation pool) and one workspace per worker. The
// ensemble loop builds it once for the first bootstrap and rebinds —
// never reallocates — it for every subsequent one. The permutation pool never rebinds at all: the subsample size is
// constant across bootstraps, so the same permuted index sets apply to
// every bootstrap's view.
type scanKit struct {
	k       *pairKernel
	workers []scanWorker
}

// newScanKit builds the apparatus against an already-filled view.
func newScanKit(wm *bspline.WeightMatrix, cfg Config) *scanKit {
	k := newPairKernel(wm, cfg)
	kit := &scanKit{k: k, workers: make([]scanWorker, cfg.Workers)}
	// Each worker's scratch is allocated on a goroutine of its own. Built
	// back to back on one goroutine, it cost ~15% more scan CPU time
	// (2 workers, n=400, m=128, q=30 on a 2-vCPU VM; medians of 8
	// interleaved runs), as scratch shared between cores would.
	fanOut(cfg.Workers, func(w int) error {
		kit.workers[w] = scanWorker{k: k, ws: k.newWorkspace()}
		return nil
	})
	return kit
}

// rebind points the kit at a refilled weight-matrix view: marginal
// entropies are recomputed and every workspace's row keys are
// invalidated (a stale key would alias the previous bootstrap's gene
// values).
func (kit *scanKit) rebind(wm *bspline.WeightMatrix) {
	kit.k.est.Reset(wm)
	for _, sw := range kit.workers {
		sw.ws.InvalidateRowKeys()
	}
}

// hostScan runs phases 3 and 4 on the resident host pool — the engine
// behind Host, Phi and Hybrid. kit, when non-nil, is the ensemble
// loop's shared apparatus; nil builds a fresh one. It fills res and
// returns the per-tile MI kernel evaluation counts (full history
// across resumed sessions — the basis of the Phi and Hybrid time
// models) plus the tile list.
func hostScan(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result, kit *scanKit) ([]int64, []tile.Tile, error) {
	if kit == nil {
		kit = newScanKit(wm, cfg)
	}
	tiles := tile.Decompose(wm.Genes, cfg.TileSize)
	log, err := openTileLog(cfg, fingerprint(wm, cfg), len(tiles), res)
	if err != nil {
		return nil, nil, err
	}
	if err := scanPool(ctx, cfg, res, wm.Genes, tiles, log, kit.workers); err != nil {
		return nil, nil, err
	}
	return log.state.EvalsPerTile, tiles, nil
}

// scanPool is the scheduler of the in-process engines (host, Phi,
// Hybrid, out-of-core): phase 3 over the workers unless the log
// resumed a threshold, then phase 4 with one goroutine per worker
// taking tiles under cfg.Policy. A fleet chunk (cfg.ChunkTiles)
// restricts phase 4 to its tile range; phase 3's pooled null is
// independent of the range, so every chunk derives the same threshold.
func scanPool(ctx context.Context, cfg Config, res *Result, n int, tiles []tile.Tile, log *tileLog, workers []scanWorker) error {
	lo, hi := 0, len(tiles)
	if cfg.ChunkTiles > 0 {
		lo, hi = cfg.ChunkStart, cfg.ChunkStart+cfg.ChunkTiles
		if hi > len(tiles) {
			return fmt.Errorf("core: chunk range [%d,%d) exceeds %d tiles", lo, hi, len(tiles))
		}
	}
	if !log.resumed {
		var err error
		res.Timer.Time("threshold", func() {
			log.state.Threshold, log.state.NullSize, err = nullThreshold(cfg, n, 0, 1, workers, ctx.Err, nil)
		})
		if err != nil {
			return err
		}
	}
	res.Threshold, res.NullSize = log.state.Threshold, log.state.NullSize
	for _, sw := range workers {
		sw.k.thresh = res.Threshold
	}

	scan := newTileScan(cfg, tiles, log, log.pending(lo, hi))
	stats := make([]workerStats, len(workers))
	var err error
	res.Timer.Time("mi", func() {
		sched := tile.NewScheduler(cfg.Policy, len(scan.pending), len(workers))
		err = fanOut(len(workers), func(w int) (werr error) {
			stats[w], werr = scan.run(w, sched, ctx.Err, workers[w])
			return werr
		})
	})
	// Persist whatever completed, even on cancellation or a failed load.
	if ferr := log.flush(); ferr != nil {
		return ferr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	foldWorkers(res, stats)
	log.publish(res, n)
	return nil
}
