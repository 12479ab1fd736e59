package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/tinge"
)

// fsRow is one measured configuration of the FS experiment, serialized
// into BENCH_f32.json. Memory has two columns: PeakTileBytes is the
// engine's own gauge of the largest per-worker tile working set
// (joint-histogram workspace + permutation cache arena), the number
// the float32 path halves; AllocMIBytes is the heap allocated across
// the whole inference call — the in-process stand-in for RSS, since a
// single benchmark process cannot read a per-run peak RSS (the kernel
// high-water mark is monotone across the whole process lifetime).
type fsRow struct {
	Genes           int     `json:"genes"`
	Samples         int     `json:"samples"`
	Permutations    int     `json:"permutations"`
	MISeconds64     float64 `json:"mi_seconds_float64"`
	MISeconds32     float64 `json:"mi_seconds_float32"`
	Speedup         float64 `json:"speedup"`
	PeakTileBytes64 int64   `json:"peak_tile_bytes_float64"`
	PeakTileBytes32 int64   `json:"peak_tile_bytes_float32"`
	AllocMIBytes64  uint64  `json:"alloc_bytes_float64"`
	AllocMIBytes32  uint64  `json:"alloc_bytes_float32"`
	Edges           int     `json:"edges"`
}

// fsDoc is the envelope of a BENCH_f32*.json measurement file.
type fsDoc struct {
	Experiment string  `json:"experiment"`
	Engine     string  `json:"engine"`
	Seed       uint64  `json:"seed"`
	Rows       []fsRow `json:"rows"`
}

// fsRun measures one precision: best-of-reps mi-phase seconds, the
// first run's result (for network/gauges), and its heap allocation.
func (s *suite) fsRun(d *tinge.Dataset, cfg tinge.Config, reps int) (*tinge.Result, float64, uint64) {
	var (
		first *tinge.Result
		alloc uint64
		best  float64
	)
	for r := 0; r < reps; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := tinge.InferDataset(d, cfg)
		if err != nil {
			log.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mi := res.Timer.Get("mi").Seconds()
		if first == nil {
			first = res
			alloc = after.TotalAlloc - before.TotalAlloc
			best = mi
		} else if mi < best {
			best = mi
		}
	}
	return first, best, alloc
}

// FS: the float32 compute path against the float64 default on the host
// engine. The float32 build must reproduce the float64 network exactly
// (edge-identical at default B-spline settings — the engine's golden
// tests pin the MI tolerance at 1e-4 bits); this experiment measures
// what that costs and saves: mi-phase seconds, the per-worker tile
// working set, and heap allocation. Results go to BENCH_f32.json.
func (s *suite) fs() {
	header("FS", "float32 vs float64 compute precision (host engine)")
	// Best-of-3 per precision: the kernel gap is ~1.2x (see
	// BenchmarkSweepBucketed337x64/x32) but the mi phase shares its
	// scatter pass between precisions, so the end-to-end gap lands
	// around 15% — single measurements on a busy machine add enough
	// jitter to distort it.
	sizes := []int{500, 1000}
	m, perms := 337, 30
	reps := 3
	if s.quick {
		sizes = []int{100, 200}
		m, perms = 128, 10
		reps = 2
	}
	fmt.Printf("%7s %10s %10s %9s %12s %12s %11s %11s %7s\n",
		"genes", "f64 mi(s)", "f32 mi(s)", "speedup",
		"f64 tile(B)", "f32 tile(B)", "f64 alloc", "f32 alloc", "edges")
	var rows []fsRow
	for _, n := range sizes {
		d := s.dataset(n, m)
		cfg := tinge.Config{Seed: s.seed, Permutations: perms, DPI: true, DPITolerance: 0.1}
		cfg32 := cfg
		cfg32.Precision = tinge.Float32

		res64, mi64, alloc64 := s.fsRun(d, cfg, reps)
		res32, mi32, alloc32 := s.fsRun(d, cfg32, reps)

		if !sameEdgeSet(res64.Network, res32.Network) {
			log.Fatalf("FS n=%d: float32 network is not edge-identical to float64 (%d vs %d edges)",
				n, res32.Network.Len(), res64.Network.Len())
		}
		r := fsRow{
			Genes: n, Samples: m, Permutations: perms,
			MISeconds64: mi64, MISeconds32: mi32, Speedup: mi64 / mi32,
			PeakTileBytes64: res64.PeakTileBytes, PeakTileBytes32: res32.PeakTileBytes,
			AllocMIBytes64: alloc64, AllocMIBytes32: alloc32,
			Edges: res64.Network.Len(),
		}
		rows = append(rows, r)
		fmt.Printf("%7d %10.3f %10.3f %8.2fx %12d %12d %10.1fM %10.1fM %7d\n",
			n, mi64, mi32, r.Speedup,
			r.PeakTileBytes64, r.PeakTileBytes32,
			float64(alloc64)/1e6, float64(alloc32)/1e6, r.Edges)
	}
	out := fsDoc{Experiment: "FS", Engine: "host", Seed: s.seed, Rows: rows}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	path := s.benchPath("BENCH_f32")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote " + path)
}

// sameEdgeSet reports whether two networks connect exactly the same
// gene pairs (weights may differ within the float32 MI tolerance).
func sameEdgeSet(a, b *tinge.Network) bool {
	if a.Len() != b.Len() {
		return false
	}
	set := make(map[[2]int]bool, a.Len())
	for _, e := range a.Edges() {
		set[[2]int{e.I, e.J}] = true
	}
	for _, e := range b.Edges() {
		if !set[[2]int{e.I, e.J}] {
			return false
		}
	}
	return true
}

// identicalNetwork reports whether two networks are bit-identical —
// same edges in the same order with bitwise-equal MI weights. Unlike
// sameEdgeSet the weights must match too.
func identicalNetwork(a, b *tinge.Network) bool {
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for k := range ae {
		if ae[k].I != be[k].I || ae[k].J != be[k].J || ae[k].Weight != be[k].Weight {
			return false
		}
	}
	return true
}
