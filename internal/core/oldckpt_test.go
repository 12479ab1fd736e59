package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// TestResumeEarlierReleaseCheckpoints feeds the engines partial
// host-scan checkpoints written by an earlier release:
// testdata/host_partial_screen_on.ckpt was saved with the retired pair
// screen on, host_partial_screen_off.ckpt with it off. Both cut edges
// by the per-pair permutation rule. They must still decode (as the
// per-pair rule, the zero value), and resuming them must fail with an
// error that names both rules — never a silent fresh start, and never a
// network that mixes tiles cut under two rules. The refused file is
// left as it was.
func TestResumeEarlierReleaseCheckpoints(t *testing.T) {
	d := testDataset(t, 40, 120, 77)
	base := Config{Seed: 3, Permutations: 10, Workers: 1, TileSize: 4, DPI: true, DPITolerance: 0.1, CheckpointEvery: 4}
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
		if st.Fingerprint.Rule != checkpoint.RulePerPair {
			t.Fatalf("%s: decoded rule %v, want %v", name, st.Fingerprint.Rule, checkpoint.RulePerPair)
		}

		for _, eng := range []EngineKind{Host, Cluster} {
			cfg := base
			cfg.Engine = eng
			cfg.CheckpointPath = path
			res, err := Infer(d.Expr, cfg)
			if err == nil {
				t.Fatalf("%s/%v: resumed a per-pair checkpoint (%d edges)", name, eng, res.Network.Len())
			}
			for _, want := range []string{checkpoint.RulePerPair.String(), checkpoint.RulePooledNull.String()} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s/%v: error %q does not name %q", name, eng, err, want)
				}
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, raw) {
				t.Fatalf("%s/%v: refused checkpoint was rewritten (read err %v)", name, eng, rerr)
			}
		}
	}
}
