package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
)

// TestMain doubles as the tinge binary: a child process started with
// TINGE_TEST_MAIN=1 runs main() over the arguments after "--", so the
// tests below drive the real flag parsing and stderr summary without a
// separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("TINGE_TEST_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"tinge"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTinge runs the command in a child process and returns its stderr
// and exit error.
func runTinge(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "TINGE_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

func writeExpr(t *testing.T, genes, experiments int) string {
	t.Helper()
	d := expr.MustGenerate(expr.GenConfig{Genes: genes, Experiments: experiments, AvgRegulators: 2, Noise: 0.05, Seed: 7})
	path := filepath.Join(t.TempDir(), "expr.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOutOfCoreSummaryReportsBudget: without -memory-budget the ooc
// engine runs under the 64 MiB default, and the summary must report
// that budget rather than the unset flag value 0.
func TestOutOfCoreSummaryReportsBudget(t *testing.T) {
	in := writeExpr(t, 40, 60)
	out := filepath.Join(t.TempDir(), "edges.tsv")
	stderr, err := runTinge(t, "-in", in, "-out", out, "-engine", "ooc",
		"-permutations", "8", "-workers", "2", "-tile", "8")
	if err != nil {
		t.Fatalf("tinge failed: %v\n%s", err, stderr)
	}
	m := regexp.MustCompile(`out-of-core: peak (\d+) bytes of (\d+) budget`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no out-of-core summary line in:\n%s", stderr)
	}
	peak, _ := strconv.ParseInt(m[1], 10, 64)
	budget, _ := strconv.ParseInt(m[2], 10, 64)
	if budget != 64<<20 {
		t.Fatalf("summary budget %d, want the %d default", budget, 64<<20)
	}
	if peak <= 0 || peak > budget {
		t.Fatalf("summary peak %d outside (0, %d]", peak, budget)
	}

	stderr, err = runTinge(t, "-in", in, "-out", out, "-engine", "ooc",
		"-permutations", "8", "-workers", "2", "-tile", "8", "-memory-budget", fmt.Sprint(32<<20))
	if err != nil {
		t.Fatalf("tinge failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, fmt.Sprintf("bytes of %d budget", 32<<20)) {
		t.Fatalf("explicit budget not reported:\n%s", stderr)
	}
}

// TestRejectsZeroPermutations: -permutations 0 is refused instead of
// silently running the library default.
func TestRejectsZeroPermutations(t *testing.T) {
	in := writeExpr(t, 10, 20)
	stderr, err := runTinge(t, "-in", in, "-permutations", "0")
	if err == nil {
		t.Fatalf("-permutations 0 accepted:\n%s", stderr)
	}
	if !strings.Contains(stderr, "-permutations 0: need at least 1") {
		t.Fatalf("unexpected error output:\n%s", stderr)
	}
}
