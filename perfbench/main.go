// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded synthetic expression matrix per workload, feeds it
// to the program as TSV bytes through the public entry points of each
// module, checks every network it gets back, and prints the metrics
// named in BENCHMARK.json as the last line of standard output:
//
//	perfbench --workload resident-dense --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run with spans around every call into a layer, and reports the
// per-layer metrics. README.md in this directory maps each layer metric
// to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
)

// workload is one named benchmark input and configuration.
type workload struct {
	name  string
	gen   expr.GenConfig
	cfg   core.Config
	fleet bool
}

// workloads returns every workload with its inputs drawn from seed.
// The why of each is in BENCHMARK.json and README.md.
func workloads(seed uint64) []workload {
	dpi := func(c core.Config) core.Config {
		c.Permutations = 30
		c.DPI = true
		c.DPITolerance = 0.1
		c.Seed = seed
		return c
	}
	return []workload{
		{
			name: "resident-dense",
			gen:  expr.GenConfig{Genes: 500, Experiments: 337, AvgRegulators: 2, Noise: 0.1},
			cfg:  dpi(core.Config{Engine: core.Host}),
		},
		{
			name: "ooc-sparse",
			gen:  expr.GenConfig{Genes: 1500, Experiments: 128, AvgRegulators: 2, Noise: 0.6},
			cfg:  dpi(core.Config{Engine: core.OutOfCore, Precision: core.Float32, CMIFilter: true}),
		},
		{
			name: "cluster-mpi",
			gen:  expr.GenConfig{Genes: 700, Experiments: 128, AvgRegulators: 2, Noise: 0.1},
			cfg:  dpi(core.Config{Engine: core.Cluster, Ranks: 2}),
		},
		{
			name:  "fleet-service",
			gen:   expr.GenConfig{Genes: 200, Experiments: 128, AvgRegulators: 2, Noise: 0.1},
			cfg:   dpi(core.Config{Engine: core.Host}),
			fleet: true,
		},
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed above the result: sample counts and the
	// failure ratio, which BENCHMARK.json does not gate.
	notes []string
}

// runOpts are the command-line settings of one run.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// spillDir is a fresh directory for the panel store's spill files.
	spillDir string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 15, "seconds to measure")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build/perfbench", "directory for spill files and traces")
	flag.Parse()

	var w *workload
	var names []string
	for _, c := range workloads(*seed) {
		names = append(names, c.name)
		if c.name == *name {
			c := c
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *traced == 1}
	rep, err := run(*w, opts, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printReport(w.name, rep)
}

// run measures workload w. Spill files live in a fresh directory under
// out that is removed afterwards; a traced run leaves its spans in
// out/traces.
func run(w workload, opts runOpts, out string) (*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts.spillDir = dir
	rec := newRecorder()
	var rep *report
	if w.fleet {
		rep, err = runFleet(w, opts, rec)
	} else {
		rep, err = runBatch(w, opts, rec)
	}
	if err != nil || !opts.trace {
		return rep, err
	}
	traces := filepath.Join(out, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d-%d.json", w.name, opts.seed, os.Getpid()))
	if err := writeSpans(path, rec.snapshot()); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// printReport prints one human-readable line per metric, then the JSON
// result as the last line.
func printReport(name string, rep *report) {
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, n := range rep.notes {
		fmt.Printf("%s %s\n", name, n)
	}
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Printf("%s %-30s %14.6g %s\n", name, k, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
