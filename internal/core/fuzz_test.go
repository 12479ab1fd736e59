package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// FuzzConfigValidate pins Validate's contract for arbitrary settings:
// it either rejects a config or resolves it to a fixed point, so
// validating the resolved config again changes nothing and keeps the
// same server.JobKey (the content address of checkpoints and fleet
// cache entries).
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint8(0), 0, 0, 0, 0.0, 0, -1.0, 0.0, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0, 0, 0, 0, 0, int64(0), 0, uint8(0), uint8(0), uint64(0))
	f.Add(uint8(2), 3, 10, 30, 0.01, 500, 0.1, 0.3, 2, 32, 64, 0, 0, 6, 0.8, 0.5, 2, 1, 0, 4, -1, int64(0), 0, uint8(1), uint8(1), uint64(7))
	f.Add(uint8(4), 1, 4, 1, 0.5, 1, 0.0, 1.0, 1, 4, 1, 0, 0, 0, 0.0, 0.0, 0, 0, 0, 0, 0, int64(1<<20), 8, uint8(2), uint8(0), uint64(1))
	f.Add(uint8(0), 3, 10, 8, 0.01, 0, -1.0, 0.0, 1, 4, 0, 4, 8, 0, 0.0, 0.0, 0, 0, 0, 0, 0, int64(0), 0, uint8(0), uint8(0), uint64(3))
	f.Add(uint8(1), 2, 6, 5, 0.2, 10, 0.05, 0.2, 3, 8, 2, 0, 0, 0, 0.0, 0.0, 0, 0, 2, 0, 0, int64(0), 0, uint8(0), uint8(1), uint64(9))
	// Non-finite settings must be rejected, not resolved.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), 0, 0, 0, nan, 0, nan, nan, 0, 0, 0, 0, 0, 2, nan, nan, 0, 0, 0, 0, 0, int64(0), 0, uint8(0), uint8(0), uint64(0))
	f.Add(uint8(0), 0, 0, 0, 0.0, 0, -inf, inf, 0, 0, 0, 0, 0, 2, -inf, inf, 0, 0, 0, 0, 0, int64(0), 0, uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, engine uint8, order, bins, perms int, alpha float64, nullPairs int,
		dpiTol, cmiRatio float64, workers, tileSize, every, chunkStart, chunkTiles, boots int,
		subsample, support float64, bStart, bCount, tpc, ranks, maxRecoveries int,
		budget int64, panelRows int, kernel, prec uint8, seed uint64) {
		cfg := core.Config{
			Engine: core.EngineKind(engine % 6), Order: order, Bins: bins, Permutations: perms,
			Alpha: alpha, NullSamplePairs: nullPairs, DPI: dpiTol >= 0, DPITolerance: dpiTol,
			CMIFilter: cmiRatio > 0, CMIRatio: cmiRatio, Workers: workers, TileSize: tileSize,
			Seed: seed, Kernel: core.KernelKind(kernel % 4), Precision: core.Precision(prec % 3),
			CheckpointEvery: every, ChunkStart: chunkStart, ChunkTiles: chunkTiles,
			Ensemble: core.EnsembleConfig{
				Bootstraps: boots, SubsampleFrac: subsample, SupportCutoff: support,
				Seed: seed, Start: bStart, Count: bCount,
			},
			ThreadsPerCore: tpc, Ranks: ranks, MaxRecoveries: maxRecoveries,
			MemoryBudget: budget, PanelRows: panelRows,
		}
		if cfg.Validate() != nil {
			return
		}
		again := cfg
		if err := again.Validate(); err != nil {
			t.Fatalf("validated config rejected on revalidation: %v\n%+v", err, cfg)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("Validate is not idempotent:\nonce  %+v\ntwice %+v", cfg, again)
		}
		body := []byte("gene\tE0\tE1\tE2\tE3\nG0\t1\t2\t3\t4\nG1\t4\t3\t2\t1\n")
		if k1, k2 := server.JobKey(body, cfg), server.JobKey(body, again); k1 != k2 {
			t.Fatalf("JobKey moved on revalidation: %s != %s", k1, k2)
		}
	})
}
