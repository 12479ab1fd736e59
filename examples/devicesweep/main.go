// Device sweep: the abstract closes with "our optimization … holds out
// lessons that are applicable to other domains" — this example turns
// the cost model into a design-space explorer. It prices the
// whole-genome MI workload on hypothetical accelerators, sweeping one
// resource at a time around the Xeon Phi 5110P baseline, and reports
// which resource is the binding constraint.
//
//	go run ./examples/devicesweep
package main

import (
	"fmt"

	"repro/tinge"
)

const (
	genes       = 15575
	experiments = 3137
	perms       = 3 // permutations per pair priced (TINGe's early-exit test)
)

func workload(dev tinge.Device) []tinge.Work {
	tiles := tinge.DecomposePairs(genes, 64)
	items := make([]tinge.Work, len(tiles))
	for i, tl := range tiles {
		items[i] = dev.TileCost(tinge.KernelParams{
			Pairs: tl.Pairs(), Samples: experiments, Order: 3, Bins: 10,
			Perms: perms, Vectorized: true,
		})
	}
	return items
}

func minutes(dev tinge.Device, tpc int) float64 {
	sec := dev.Seconds(dev.Makespan(workload(dev), tpc, tinge.Dynamic))
	sec += tinge.PCIeGen2x16().TransferTime(int64(genes) * 10 * int64(experiments) * 4)
	return sec / 60
}

func main() {
	base := tinge.XeonPhi5110P()
	baseMin := minutes(base, 4)
	fmt.Printf("baseline %s: %.2f simulated minutes for the whole-genome MI pass\n\n",
		base.Name, baseMin)

	fmt.Println("sweep: vector lanes (512-bit float32 = 16)")
	fmt.Printf("%8s %12s %9s\n", "lanes", "minutes", "speedup")
	for _, lanes := range []int{4, 8, 16, 32, 64} {
		d := base
		d.VectorLanes = lanes
		m := minutes(d, 4)
		fmt.Printf("%8d %12.2f %9.2f\n", lanes, m, baseMin/m)
	}

	fmt.Println("\nsweep: cores")
	fmt.Printf("%8s %12s %9s\n", "cores", "minutes", "speedup")
	for _, cores := range []int{30, 60, 120, 240} {
		d := base
		d.Cores = cores
		m := minutes(d, 4)
		fmt.Printf("%8d %12.2f %9.2f\n", cores, m, baseMin/m)
	}

	fmt.Println("\nsweep: clock (GHz)")
	fmt.Printf("%8s %12s %9s\n", "GHz", "minutes", "speedup")
	for _, ghz := range []float64{0.5, 1.053, 2.0, 3.0} {
		d := base
		d.ClockGHz = ghz
		m := minutes(d, 4)
		fmt.Printf("%8.2f %12.2f %9.2f\n", ghz, m, baseMin/m)
	}

	fmt.Println("\nlesson 1: lanes, cores, and clock all scale this kernel almost")
	fmt.Println("linearly — it is issue-bound, not memory-bound, once the dense")
	fmt.Println("dot-product formulation removes the scatter.")

	fmt.Println("\nsweep: PCIe bandwidth (GB/s) at 16-lane/60-core baseline")
	fmt.Printf("%8s %12s %14s\n", "GB/s", "xfer(s)", "share of total")
	computeSec := base.Seconds(base.Makespan(workload(base), 4, tinge.Dynamic))
	for _, bw := range []float64{1, 6, 16, 64} {
		link := tinge.Offload{BandwidthGBps: bw, LatencySec: 20e-6}
		x := link.TransferTime(int64(genes) * 10 * int64(experiments) * 4)
		fmt.Printf("%8.0f %12.2f %13.1f%%\n", bw, x, 100*x/(x+computeSec))
	}
	fmt.Println("\nlesson 2: at whole-genome scale the offload link is nearly")
	fmt.Println("irrelevant (pair work is quadratic, transfers linear) — the")
	fmt.Println("optimization effort belongs in the kernel, not the interconnect.")
}
