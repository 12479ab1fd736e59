package main

import (
	"math"
	"time"

	"repro/internal/bspline"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/perm"
)

// probeResult is the kernel probe's cost per evaluation of the observed
// kernel and of the permutation sweep.
type probeResult struct {
	observedNs, permNs float64
}

const (
	probePairs = 256                   // sampled pairs per workload
	probeBatch = 40 * time.Millisecond // least time of one timed batch
)

// probeKernels times the mi.Estimator kernels the engines call on a
// seeded sample of probePairs pairs from the workload's own weight matrix:
// PairBlocked (float64) or PairBlocked32 (float32) for observed pairs,
// and SweepBucketed or SweepBucketed32 with no early exit for the
// permutations, reading the j gene's rows from a PermCache as the
// engines do. Each cost is the median of five batches.
func probeKernels(expr *mat.Dense, cfg core.Config, seed uint64) probeResult {
	norm := expr.Clone()
	norm.RankNormalize()
	basis := bspline.MustNew(cfg.Order, cfg.Bins)
	wm := bspline.Precompute(basis, norm)
	est := mi.NewEstimator(wm)
	ws := mi.NewWorkspacePrec(est, cfg.Precision)
	pool := perm.MustNewPool(cfg.Seed, expr.Cols(), cfg.Permutations)
	perms := pool.Perms()

	// The j genes of one tile share the permuted-row cache, as in the
	// engines; the i genes are drawn from the whole matrix.
	n := expr.Rows()
	tileW := min(cfg.TileSize, n-1)
	rng := perm.NewRNG(seed).Split(0x9B0E)
	j0 := rng.Intn(n - tileW + 1)
	pc := mi.NewPermCache(est, perms, tileW)
	is, js := make([]int, probePairs), make([]int, probePairs)
	for k := range is {
		js[k] = j0 + rng.Intn(tileW)
		for is[k] = rng.Intn(n); is[k] == js[k]; is[k] = rng.Intn(n) {
		}
	}
	for _, j := range js {
		pc.Gene(j)
	}

	f32 := cfg.Precision == core.Float32
	observed := func(k int) int {
		if f32 {
			est.PairBlocked32(is[k], js[k], ws)
		} else {
			est.PairBlocked(is[k], js[k], ws)
		}
		return 1
	}
	permuted := func(k int) int {
		poffs, pw := pc.Gene(js[k])
		var evals int
		if f32 {
			evals, _ = est.SweepBucketed32(is[k], js[k], math.Inf(1), perms, poffs, pw, ws)
		} else {
			evals, _ = est.SweepBucketed(is[k], js[k], math.Inf(1), perms, poffs, pw, ws)
		}
		return evals
	}
	return probeResult{observedNs: nsPerEval(observed), permNs: nsPerEval(permuted)}
}

// nsPerEval runs eval over the sample pairs in batches of at least
// probeBatch and returns the median cost per evaluation.
func nsPerEval(eval func(k int) int) float64 {
	costs := make([]float64, 5)
	for b := range costs {
		evals := 0
		start := time.Now()
		for time.Since(start) < probeBatch {
			for k := range probePairs {
				evals += eval(k)
			}
		}
		costs[b] = float64(time.Since(start).Nanoseconds()) / float64(evals)
	}
	return median(costs)
}
