package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/grn"
)

// perPairOracle is the significance rule of earlier releases, kept only
// as a test reference: pair (i, j) is an edge when its observed MI
// reaches the pooled-null threshold AND strictly exceeds each of its q
// MIs under the shared permutation pool (empirical p < 1/(q+1)). It
// scans every pair independently of the engines, with the same kernels,
// pool and threshold they use.
func perPairOracle(t *testing.T, d *expr.Dataset, cfg Config, threshold float64) *grn.Network {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := d.Expr.Clone()
	norm.RankNormalize()
	k := newPairKernel(precomputeWeights(t, cfg, norm), cfg)
	ws := k.newWorkspace()
	n := d.Expr.Rows()
	net := grn.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			obs := k.miPair(i, j, ws)
			if obs < threshold {
				continue
			}
			sig := true
			for p := 0; p < k.pool.Q() && sig; p++ {
				sig = k.miPermuted(i, j, p, ws) < obs
			}
			if sig {
				net.AddEdge(i, j, obs)
			}
		}
	}
	return net
}

// TestPooledNullContract pins what dropping the per-pair permutation
// test costs, across a grid of sizes, noise levels and seeds. The
// per-pair rule only removes edges from the pooled-null cut, so its
// edges must be a subset of the scan's raw edges (same pairs, same
// weights). The two raw edge sets must stay close (Jaccard), and after
// DPI their F1 against the generator's ground truth must agree.
//
// On this grid the oracle reproduces the earlier release's raw networks
// bit for bit. The measured worst cases are Jaccard 0.870 (n=80 m=80
// noise=0.3 seed=3) and |dF1| 0.016 (n=80 m=200 noise=0.3 seed=1); the
// bounds leave room for floating-point drift across platforms.
func TestPooledNullContract(t *testing.T) {
	const (
		minJaccard = 0.85
		maxDeltaF1 = 0.025
		dpiTol     = 0.1
	)
	for _, n := range []int{40, 80} {
		for _, m := range []int{80, 200} {
			for _, noise := range []float64{0.05, 0.3} {
				for _, seed := range []uint64{1, 2, 3} {
					label := fmt.Sprintf("n=%d m=%d noise=%g seed=%d", n, m, noise, seed)
					d := expr.MustGenerate(expr.GenConfig{
						Genes: n, Experiments: m, AvgRegulators: 2, Noise: noise, Seed: seed,
					})
					cfg := Config{Seed: seed, Permutations: 20, Workers: 2, TileSize: 16}
					res, err := Infer(d.Expr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					oracle := perPairOracle(t, d, cfg, res.Threshold)
					raw := make(map[[2]int]float64, res.Network.Len())
					for _, e := range res.Network.Edges() {
						raw[[2]int{e.I, e.J}] = e.Weight
					}
					for _, e := range oracle.Edges() {
						if w, ok := raw[[2]int{e.I, e.J}]; !ok || w != e.Weight {
							t.Fatalf("%s: per-pair edge %+v is not a raw edge (raw weight %v, present %v)", label, e, w, ok)
						}
					}
					jac := 1.0
					if res.Network.Len() > 0 {
						jac = float64(oracle.Len()) / float64(res.Network.Len())
					}
					truth := d.TrueEdgeSet()
					f1New := res.Network.DPI(dpiTol).ScoreAgainst(truth).F1
					f1Old := oracle.DPI(dpiTol).ScoreAgainst(truth).F1
					t.Logf("%s: raw %d per-pair %d jaccard %.4f F1 %.4f -> %.4f dF1 %+.4f",
						label, res.Network.Len(), oracle.Len(), jac, f1Old, f1New, f1New-f1Old)
					if jac < minJaccard {
						t.Errorf("%s: raw-edge Jaccard %.4f < %.2f", label, jac, minJaccard)
					}
					if d := math.Abs(f1New - f1Old); d > maxDeltaF1 {
						t.Errorf("%s: |dF1| after DPI %.4f > %.2f", label, d, maxDeltaF1)
					}
				}
			}
		}
	}
}
