package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// TestResumeEarlierReleaseCheckpoints resumes partial host-scan
// checkpoints written by an earlier release that still had the pair
// screen option: testdata/host_partial_screen_on.ckpt was saved with
// the screen on, host_partial_screen_off.ckpt with it off. Their gob
// payloads carry the retired Fingerprint flag and per-tile screened
// counts; both must decode, match the current fingerprint, and finish
// to a network bit-identical to a fresh full run.
func TestResumeEarlierReleaseCheckpoints(t *testing.T) {
	d := testDataset(t, 40, 120, 77)
	base := Config{Seed: 3, Permutations: 10, Workers: 1, TileSize: 4, DPI: true, DPITolerance: 0.1, CheckpointEvery: 4}
	ref, err := Infer(d.Expr, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"host_partial_screen_off.ckpt", "host_partial_screen_on.ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if rem := st.Remaining(); rem == 0 || rem == len(st.Done) {
			t.Fatalf("%s: %d of %d tiles remaining, want a partial scan", name, rem, len(st.Done))
		}

		cfg := base
		cfg.CheckpointPath = path
		res, err := Infer(d.Expr, cfg)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if res.CheckpointRecoveries != 0 {
			t.Fatalf("%s: checkpoint discarded as corrupt instead of resumed", name)
		}
		if res.PairsEvaluated >= ref.PairsEvaluated {
			t.Fatalf("%s: resumed run evaluated %d pairs, full run %d — nothing was resumed",
				name, res.PairsEvaluated, ref.PairsEvaluated)
		}
		if res.Threshold != ref.Threshold {
			t.Fatalf("%s: threshold %v != fresh %v", name, res.Threshold, ref.Threshold)
		}
		got, want := res.Network.Edges(), ref.Network.Edges()
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges != fresh %d", name, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: edge %d differs: %+v vs %+v", name, k, got[k], want[k])
			}
		}
	}
}
