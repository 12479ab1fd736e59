package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bspline"
	"repro/internal/mpi"
	"repro/internal/tile"
)

// corruptGatherForTest, when non-nil, mangles a rank's flat edge-gather
// payload before it is sent — the test seam for the malformed-gather
// error path (which must abort the world, not deadlock it).
var corruptGatherForTest func(rank int, flat []float64) []float64

// clusterRecorder is the cluster engine's view of the shared tile log —
// the in-process stand-in for the shared filesystem TINGe deployments
// checkpoint to between work blocks. Ranks commit finished tiles to the
// log; when a world aborts, committed tiles survive and only the
// in-flight remainder is redistributed to the surviving ranks. On top
// of the log it keeps the first-wins threshold commit and the traffic
// high-water marks, under the log's mutex.
type clusterRecorder struct {
	*tileLog

	thresholdDone bool
	thresholdAt   time.Time // when this run committed the threshold

	// Traffic high-water marks: the world's counters are global and
	// monotone per attempt; ranks sample them at phase boundaries, and
	// foldAttempt accumulates the attempt's peak into the run total so
	// failed attempts' communication is still accounted.
	msgsCur, bytesCur     int64
	msgsTotal, bytesTotal int64
}

// threshold returns the committed threshold state.
func (r *clusterRecorder) threshold() (th float64, nullSize int, done bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Threshold, r.state.NullSize, r.thresholdDone
}

// setThreshold commits the phase-3 result once; every rank computes the
// identical value from the seed, so first-wins is not a race.
func (r *clusterRecorder) setThreshold(th float64, nullSize int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.thresholdDone {
		return
	}
	r.state.Threshold = th
	r.state.NullSize = nullSize
	r.thresholdDone = true
	r.thresholdAt = time.Now()
}

// sampleTraffic records the world's traffic counters at a phase
// boundary.
func (r *clusterRecorder) sampleTraffic(msgs, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if msgs > r.msgsCur {
		r.msgsCur = msgs
	}
	if bytes > r.bytesCur {
		r.bytesCur = bytes
	}
}

// foldAttempt folds the finished (or aborted) attempt's traffic peak
// into the run totals.
func (r *clusterRecorder) foldAttempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgsTotal += r.msgsCur
	r.bytesTotal += r.bytesCur
	r.msgsCur, r.bytesCur = 0, 0
}

// timeAttempt splits an attempt's wall time between the threshold and
// mi phases at the moment the threshold was committed: an attempt that
// never committed it is all threshold, one that found it committed by
// an earlier attempt or the checkpoint is all mi.
func (r *clusterRecorder) timeAttempt(res *Result, start, end time.Time) {
	split := end
	if r.thresholdDone {
		split = r.thresholdAt
		if split.Before(start) {
			split = start
		}
	}
	if split.After(start) {
		res.Timer.Add("threshold", split.Sub(start))
	}
	res.Timer.Add("mi", end.Sub(split))
}

// runCluster executes phases 3/4 as the original TINGe does on a
// cluster: ranks own a cyclic partition of the pair tiles, each rank
// computes its share of the pooled null, the null values are
// all-gathered so every rank derives the identical threshold, each rank
// scans its tiles sequentially, and edges are gathered at rank 0.
//
// The world is fail-stop-safe and the engine recoverable: a rank that
// errors, panics, or is killed by an injected fault aborts the world
// (no peer blocks past it — see mpi.AbortError), the un-committed state
// of the surviving ranks is discarded, and the engine re-runs with the
// failed rank excluded — the tile log keeps every committed tile, and
// only the pending remainder is redistributed cyclically over the
// survivors. Because the permutation pool and the null-pair sample
// depend only on the seed (never on the world size), the recovered
// network is bit-identical to the fault-free run and to the host
// engine's.
func runCluster(ctx context.Context, wm *bspline.WeightMatrix, cfg Config, res *Result) error {
	n := wm.Genes
	tiles := tile.Decompose(n, cfg.TileSize)
	log, err := openTileLog(cfg, fingerprint(wm, cfg), len(tiles), res)
	if err != nil {
		return err
	}
	// A resumed checkpoint was saved after phase 3 completed, so its
	// threshold is authoritative.
	rec := &clusterRecorder{tileLog: log, thresholdDone: log.resumed}
	scan := newTileScan(cfg, tiles, log, log.pending(0, len(tiles)))

	alive := cfg.Ranks
	var thresholds []float64
	var stats []workerStats
	for {
		// Snapshot the pending work list outside the world so every rank
		// partitions the identical slice this attempt.
		scan.pending = log.pending(0, len(tiles))
		thresholds = make([]float64, alive)
		stats = make([]workerStats, alive)
		start := time.Now()
		err := mpi.RunOpts(ctx, alive, mpi.Options{Fault: cfg.Fault}, func(c *mpi.Comm) error {
			k := newPairKernel(wm, cfg)
			sw := scanWorker{k: k, ws: k.newWorkspace()}

			// Phase 3 (distributed): this rank's cyclic share of the null
			// sample, all-gathered. Skipped when a prior attempt or a
			// resumed checkpoint already committed the threshold — it
			// depends only on the seed, never on the world size, so
			// recovery cannot change it.
			c.Phase("null-pool")
			threshold, _, done := rec.threshold()
			if !done {
				th, nullSize, err := nullThreshold(cfg, n, c.Rank(), c.Size(), []scanWorker{sw}, c.Err, c.Allgatherv)
				if err != nil {
					return err
				}
				rec.setThreshold(th, nullSize)
				threshold = th
			}
			k.thresh = threshold
			rec.sampleTraffic(c.Traffic())

			// Phase 4: cyclic partition of the pending tiles, sequential
			// per rank. Each finished tile is committed immediately so a
			// later abort costs only in-flight work.
			c.Phase("tile-scan")
			sched := tile.NewScheduler(tile.StaticCyclic, len(scan.pending), c.Size())
			st, err := scan.run(c.Rank(), sched, c.Err, sw)
			if err != nil {
				return err
			}
			rec.sampleTraffic(c.Traffic())

			// Gather this attempt's edges at root as flat (i, j, w)
			// triples — the TINGe wire protocol, kept for communication
			// accounting and validated at root; the network itself is
			// assembled from the committed tile log.
			c.Phase("gather")
			flat := make([]float64, 0, len(st.edges)*3)
			for _, e := range st.edges {
				flat = append(flat, float64(e.I), float64(e.J), e.Weight)
			}
			if corruptGatherForTest != nil {
				flat = corruptGatherForTest(c.Rank(), flat)
			}
			gatheredEdges := c.Gatherv(0, flat)
			c.Barrier()
			rec.sampleTraffic(c.Traffic())

			thresholds[c.Rank()] = threshold
			stats[c.Rank()] = st
			if c.Rank() == 0 {
				for _, part := range gatheredEdges {
					if len(part)%3 != 0 {
						return fmt.Errorf("core: malformed edge gather of %d values", len(part))
					}
				}
			}
			return nil
		})
		rec.foldAttempt()
		rec.timeAttempt(res, start, time.Now())
		if err == nil {
			break
		}

		// Recovery policy: a rank-attributed failure with survivors and
		// retry budget left excludes the failed rank and redistributes
		// its pending tiles; cancellation and exhausted budgets surface.
		var ab *mpi.AbortError
		if errors.As(err, &ab) && ab.Rank >= 0 && alive > 1 &&
			res.RecoveryRuns < cfg.MaxRecoveries && ctx.Err() == nil {
			res.RankFailures++
			res.RecoveryRuns++
			res.RecoveredTiles += log.state.Remaining()
			alive--
			continue
		}
		// Persist whatever committed, even on a terminal failure.
		if ferr := log.flush(); ferr != nil && ctx.Err() == nil {
			return ferr
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}

	// Ranks computed thresholds from identical pooled values; assert
	// agreement (a mismatch indicates nondeterminism).
	for r := 1; r < len(thresholds); r++ {
		if thresholds[r] != thresholds[0] {
			return fmt.Errorf("core: rank %d threshold %v != rank 0 %v",
				r, thresholds[r], thresholds[0])
		}
	}
	if err := log.flush(); err != nil {
		return err
	}

	res.Threshold, res.NullSize, _ = rec.threshold()
	foldWorkers(res, stats)
	log.publish(res, n)
	res.Messages, res.TrafficBytes = rec.msgsTotal, rec.bytesTotal
	if cfg.Fault != nil {
		st := cfg.Fault.Stats()
		res.FaultDelayedMessages = st.Delayed
		res.FaultDroppedMessages = st.Dropped
	}
	return nil
}
