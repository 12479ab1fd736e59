package main

import (
	"bytes"

	"repro/internal/expr"
	"repro/internal/mat"
	"repro/internal/perm"
)

// dataSeed fixes each workload's generated regulatory graph and noise.
// The run's --seed shuffles the gene and sample order of that dataset
// (and seeds the permutation test) instead of drawing a new graph: a new
// graph per seed changes the work of one pass by up to a half (at n=500
// the permutation evaluations range from 1.18M to 1.76M over seeds 1-8),
// which no bound on wall time could absorb.
const dataSeed = 1

// generate builds the workload's dataset and presents it in the gene
// and sample order drawn from rng.
func generate(g expr.GenConfig, rng *perm.RNG) (*expr.Dataset, error) {
	g.Seed = dataSeed
	d, err := expr.Generate(g)
	if err != nil {
		return nil, err
	}
	return shuffled(d, rng), nil
}

// shuffled returns d with its genes (rows, names and truth) and its
// samples (columns) in a random order. Mutual information is invariant
// under a shared sample permutation, so the network it implies is d's
// up to gene relabelling; only the permutation test's draws differ.
func shuffled(d *expr.Dataset, rng *perm.RNG) *expr.Dataset {
	n, m := d.N(), d.M()
	rows := make([]int32, n)
	perm.FisherYates(rng, rows)
	cols := make([]int32, m)
	perm.FisherYates(rng, cols)
	pos := make([]int, n) // pos[old gene] = new row
	for k, g := range rows {
		pos[g] = k
	}
	out := &expr.Dataset{
		Genes: make([]string, n),
		Expr:  mat.NewDense(n, m),
		Truth: make([][]int, n),
	}
	for k, g := range rows {
		out.Genes[k] = d.Genes[g]
		src, dst := d.Expr.Row(int(g)), out.Expr.Row(k)
		for c, s := range cols {
			dst[c] = src[s]
		}
		for _, r := range d.Truth[g] {
			out.Truth[k] = append(out.Truth[k], pos[r])
		}
	}
	return out
}

func datasetTSV(d *expr.Dataset) ([]byte, error) {
	var b bytes.Buffer
	if err := d.WriteTSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
