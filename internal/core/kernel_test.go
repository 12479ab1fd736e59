package core

import (
	"sync"
	"testing"

	"repro/internal/bspline"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/tile"
)

// precomputeWeights replicates Infer's phase-1/2 front half for tests
// that drive the pair kernel directly.
func precomputeWeights(t *testing.T, cfg Config, norm *mat.Dense) *bspline.WeightMatrix {
	t.Helper()
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		t.Fatal(err)
	}
	return bspline.PrecomputeParallel(basis, norm, cfg.Workers)
}

// identicalNetworks requires exact equality — same edge order, same I/J,
// bitwise-equal weights, equal threshold and evaluation counts.
func identicalNetworks(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Threshold != b.Threshold {
		t.Fatalf("%s: threshold %v != %v", label, a.Threshold, b.Threshold)
	}
	if a.PairsEvaluated != b.PairsEvaluated {
		t.Fatalf("%s: PairsEvaluated %d != %d", label, a.PairsEvaluated, b.PairsEvaluated)
	}
	if a.PermEvaluations != b.PermEvaluations {
		t.Fatalf("%s: PermEvaluations %d != %d", label, a.PermEvaluations, b.PermEvaluations)
	}
	ae, be := a.Network.Edges(), b.Network.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges != %d edges", label, len(ae), len(be))
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J || ae[k].Weight != be[k].Weight {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, k, ae[k], be[k])
		}
	}
}

// TestDecideConcurrentWorkers hammers decide from cfg.Workers
// goroutines sharing one immutable estimator and pool, each with a
// private workspace — the exact phase-4 sharing pattern. Run with
// -race; it also cross-checks every goroutine's decisions against a
// serial reference.
func TestDecideConcurrentWorkers(t *testing.T) {
	d := testDataset(t, 24, 80, 5)
	cfg := Config{Seed: 9, Permutations: 12, Workers: 8, TileSize: 6}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	norm := d.Expr.Clone()
	norm.RankNormalize()
	wm := precomputeWeights(t, cfg, norm)
	k := newPairKernel(wm, cfg)
	k.thresh = 0.01

	type verdict struct {
		obs float64
		sig bool
	}
	// Serial reference over all pairs.
	ref := make(map[[2]int]verdict)
	refWS := mi.NewWorkspace(k.est)
	tiles := tile.Decompose(24, cfg.TileSize)
	for _, tl := range tiles {
		tl.ForEachPair(func(i, j int) {
			obs, sig := k.decide(i, j, refWS)
			ref[[2]int{i, j}] = verdict{obs, sig}
		})
	}

	var wg sync.WaitGroup
	errs := make(chan string, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := mi.NewWorkspace(k.est)
			// Each worker scans a cyclic share of the tiles, twice, so
			// the workspace row keys churn under load.
			for round := 0; round < 2; round++ {
				for ti := w; ti < len(tiles); ti += cfg.Workers {
					tiles[ti].ForEachPair(func(i, j int) {
						obs, sig := k.decide(i, j, ws)
						if want := ref[[2]int{i, j}]; obs != want.obs || sig != want.sig {
							select {
							case errs <- "worker decision diverged from serial reference":
							default:
							}
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSampleNullPairsDistinct is the regression test for the
// duplicate-pair bias: every sampled pair must be distinct (a duplicate
// double-counts its permuted MIs in the pooled null), canonical (i<j),
// deterministic per seed, and the count must clamp to the pair
// universe.
func TestSampleNullPairsDistinct(t *testing.T) {
	pairs := sampleNullPairs(42, 12, 60)
	if len(pairs) != 60 {
		t.Fatalf("got %d pairs, want 60", len(pairs))
	}
	seen := make(map[[2]int]bool)
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatalf("non-canonical pair %v", pr)
		}
		if seen[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		seen[pr] = true
	}
	// Determinism.
	again := sampleNullPairs(42, 12, 60)
	for x := range pairs {
		if pairs[x] != again[x] {
			t.Fatalf("pair %d differs across identical calls: %v vs %v", x, pairs[x], again[x])
		}
	}
	// Different seed, different draw.
	other := sampleNullPairs(43, 12, 60)
	same := true
	for x := range pairs {
		if pairs[x] != other[x] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence the sample")
	}
	// Requesting more pairs than exist clamps to the full universe.
	all := sampleNullPairs(7, 6, 1000)
	if len(all) != tile.TotalPairs(6) {
		t.Fatalf("clamp: got %d pairs, want %d", len(all), tile.TotalPairs(6))
	}
}
