package core

import (
	"repro/internal/bspline"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
)

// pairKernel bundles the estimator, permutation pool, and kernel choice
// shared by all engines. It is immutable and safe for concurrent use
// with per-goroutine workspaces. The pool's permutations feed only the
// pooled null (phase 3); phase 4 compares observed MI to its threshold.
type pairKernel struct {
	est    *mi.Estimator
	pool   *perm.Pool
	kind   KernelKind
	prec   Precision
	thresh float64 // I_alpha; 0 during the threshold-estimation phase
}

func newPairKernel(wm *bspline.WeightMatrix, cfg Config) *pairKernel {
	return &pairKernel{
		est:  mi.NewEstimatorParallel(wm, cfg.Workers),
		pool: perm.MustNewPool(cfg.Seed, wm.Samples, cfg.Permutations),
		kind: cfg.Kernel,
		prec: cfg.Precision,
	}
}

// newWorkspace allocates per-goroutine scratch for the configured
// precision — the float32 path's workspace carries a float32 joint
// accumulator (half the bytes), the float64 path a float64 one.
func (k *pairKernel) newWorkspace() *mi.Workspace {
	return mi.NewWorkspacePrec(k.est, k.prec)
}

// miPair computes the unpermuted MI of pair (i, j).
func (k *pairKernel) miPair(i, j int, ws *mi.Workspace) float64 {
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			return k.est.PairScalar32(i, j, ws)
		case KernelVec:
			return k.est.PairVec32(i, j, ws)
		default:
			return k.est.PairBlocked32(i, j, ws)
		}
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairScalar(i, j, ws)
	case KernelVec:
		return k.est.PairVec(i, j, ws)
	default:
		return k.est.PairBlocked(i, j, ws)
	}
}

// miPermuted computes MI of (i, j) under pool permutation p.
func (k *pairKernel) miPermuted(i, j, p int, ws *mi.Workspace) float64 {
	if k.prec == Float32 {
		switch k.kind {
		case KernelScalar:
			return k.est.PairPermutedScalar32(i, j, k.pool.Perm(p), ws)
		case KernelVec:
			return k.est.PairPermutedVec32(i, j, k.pool.Perm(p), ws)
		default:
			return k.est.PairPermutedBlocked32(i, j, k.pool.Perm(p), ws)
		}
	}
	switch k.kind {
	case KernelScalar:
		return k.est.PairPermutedScalar(i, j, k.pool.Perm(p), ws)
	case KernelVec:
		return k.est.PairPermutedVec(i, j, k.pool.Perm(p), ws)
	default:
		return k.est.PairPermutedBucketed(i, j, k.pool.Perm(p), ws)
	}
}

// decide evaluates pair (i, j): its observed MI and whether it reaches
// the pooled-null threshold I_alpha — TINGe's one significance rule.
func (k *pairKernel) decide(i, j int, ws *mi.Workspace) (obs float64, significant bool) {
	obs = k.miPair(i, j, ws)
	return obs, obs >= k.thresh
}

// sampleNullPairs deterministically selects count distinct pairs (i<j)
// from an n-gene universe for pooled-null estimation, seeded
// independently of the permutation pool. count is clamped to the number
// of distinct pairs; rejection of repeats keeps the draw deterministic
// for a given seed (the RNG stream is fixed, only which draws are kept
// changes), and guarantees no pair's permuted MIs are double-counted in
// the pooled null.
func sampleNullPairs(seed uint64, n, count int) [][2]int {
	if max := tile.TotalPairs(n); count > max {
		count = max
	}
	rng := perm.NewRNG(seed).Split(0xD1CE)
	pairs := make([][2]int, 0, count)
	seen := make(map[[2]int]struct{}, count)
	for len(pairs) < count {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		pr := [2]int{i, j}
		if _, dup := seen[pr]; dup {
			continue
		}
		seen[pr] = struct{}{}
		pairs = append(pairs, pr)
	}
	return pairs
}
