// Arabidopsis-scale run: the paper's headline experiment — a
// 15,575-gene network from 3,137 experiments on a single (simulated)
// Xeon Phi in ~22 minutes — reproduced at a configurable scale with an
// extrapolation to the full problem.
//
// The real computation runs at -scale (default 1/16 of the gene count;
// pair work shrinks quadratically) on the Phi engine, which computes
// the exact network on the host while accounting simulated coprocessor
// time. The full-size simulated time is then reported from the analytic
// work model.
//
//	go run ./examples/arabidopsis            # ~1k genes, exact network
//	go run ./examples/arabidopsis -scale 8   # larger slice
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/tinge"
)

const (
	fullGenes       = 15575
	fullExperiments = 3137
	paperMinutes    = 22.0
)

func main() {
	log.SetFlags(0)
	var (
		scale = flag.Int("scale", 16, "divide the gene count by this factor for the exact run")
		m     = flag.Int("experiments", 400, "experiments for the exact run (full problem uses 3137)")
		perms = flag.Int("permutations", 30, "permutation count q")
	)
	flag.Parse()
	if *scale < 1 {
		log.Fatal("scale must be >= 1")
	}

	n := fullGenes / *scale
	fmt.Printf("exact run: %d genes (15575/%d) x %d experiments, q=%d\n", n, *scale, *m, *perms)
	data := tinge.MustGenerate(tinge.GenConfig{
		Genes:         n,
		Experiments:   *m,
		Topology:      tinge.ScaleFree,
		AvgRegulators: 2,
		Noise:         0.1,
		Seed:          1,
	})

	start := time.Now()
	res, err := tinge.InferDataset(data, tinge.Config{
		Engine:       tinge.Phi,
		Seed:         1,
		Permutations: *perms,
		DPI:          true,
		DPITolerance: 0.1,
		TileSize:     64,
	})
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	fmt.Printf("host wall time: %v; edges: %d (raw %d); threshold %.4f\n",
		wall.Round(time.Millisecond), res.Network.Len(), res.RawEdges, res.Threshold)
	fmt.Printf("simulated Phi time for this slice: %.2fs (transfers %.3fs)\n",
		res.SimSeconds, res.SimTransferSeconds)
	score := res.Network.ScoreAgainst(data.TrueEdgeSet())
	fmt.Printf("recovery vs ground truth: P %.3f / R %.3f / F1 %.3f\n",
		score.Precision, score.Recall, score.F1)

	// Full-problem simulated time from the analytic work model: this
	// pipeline computes one observed MI per pair and cuts at the
	// pooled-null threshold.
	dev := tinge.XeonPhi5110P()
	tiles := tinge.DecomposePairs(fullGenes, 64)
	items := make([]tinge.Work, len(tiles))
	for i, tl := range tiles {
		items[i] = dev.TileCost(tinge.KernelParams{
			Pairs: tl.Pairs(), Samples: fullExperiments, Order: 3, Bins: 10, Vectorized: true,
		})
	}
	xfer := tinge.PCIeGen2x16().TransferTime(int64(fullGenes) * 10 * int64(fullExperiments) * 4)
	sec := dev.Seconds(dev.Makespan(items, 4, tinge.Dynamic)) + xfer

	// TINGe's original protocol runs all q permutations for every pair
	// (no threshold cut, no early exit) — the cost the paper's 22
	// minutes corresponds to.
	exhaustive := make([]tinge.Work, len(tiles))
	for i, tl := range tiles {
		exhaustive[i] = dev.TileCost(tinge.KernelParams{
			Pairs: tl.Pairs(), Samples: fullExperiments, Order: 3, Bins: 10,
			Perms: *perms, Vectorized: true,
		})
	}
	exSec := dev.Seconds(dev.Makespan(exhaustive, 4, tinge.Dynamic)) + xfer

	fmt.Printf("\nfull problem (%d genes x %d experiments):\n", fullGenes, fullExperiments)
	fmt.Printf("  exhaustive permutation testing (paper's protocol): %.1f min (paper reports %.0f)\n",
		exSec/60, paperMinutes)
	fmt.Printf("  pooled-null threshold only (this pipeline):        %.1f min\n", sec/60)
}
