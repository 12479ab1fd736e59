package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bspline"
	"repro/internal/core"
	"repro/internal/grn"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/perm"
)

// network is one output under check: the TSV bytes the program wrote
// (nil when the output is the full-precision JSON of the fleet), the
// exact edges, and the threshold the run reported.
type network struct {
	tsv       []byte
	edges     []grn.Edge
	threshold float64
}

// miSpotChecks is how many edges of each output have their weight
// recomputed with the slow reference estimator.
const miSpotChecks = 48

// checker holds what every output of one input is checked against.
type checker struct {
	n     int
	norm  *mat.Dense // rank-normalized input rows
	basis *bspline.Basis
	// tol bounds |weight - reference MI| in bits: the kernels accumulate
	// in a different order (and, on the float32 path, precision) than
	// the reference estimator.
	tol float64
	// ref, when set, is a network the output must equal bit for bit:
	// the host engine on the same input and config.
	ref *network
}

// newChecker prepares the checks of networks inferred from expr under
// cfg.
func newChecker(expr *mat.Dense, cfg core.Config) (*checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return nil, err
	}
	norm := expr.Clone()
	norm.RankNormalize()
	tol := 1e-6
	if cfg.Precision == core.Float32 {
		tol = 1e-4
	}
	return &checker{n: expr.Rows(), norm: norm, basis: basis, tol: tol}, nil
}

// check returns nil when out is a well-formed network: its TSV parses
// back to exactly its edges, no edge is a self-loop or out of range,
// every weight is at least the threshold, sampled weights equal the
// reference estimator's MI of their pair, and, when the checker has a
// reference network, it equals that network bit for bit.
func (c *checker) check(out network) error {
	if out.tsv != nil {
		back, err := grn.ReadTSV(bytes.NewReader(out.tsv), c.n)
		if err != nil {
			return fmt.Errorf("network TSV does not parse back: %w", err)
		}
		got := back.Edges()
		if len(got) != len(out.edges) {
			return fmt.Errorf("network TSV has %d edges, result has %d", len(got), len(out.edges))
		}
		for k, e := range out.edges {
			w, _ := strconv.ParseFloat(strconv.FormatFloat(e.Weight, 'g', 6, 64), 64)
			if got[k].I != e.I || got[k].J != e.J || got[k].Weight != w {
				return fmt.Errorf("network TSV edge %d is %v, result has %v", k, got[k], e)
			}
		}
	}
	for k, e := range out.edges {
		if e.I == e.J {
			return fmt.Errorf("edge %d is a self-loop on gene %d", k, e.I)
		}
		if e.I < 0 || e.J < 0 || e.I >= c.n || e.J >= c.n {
			return fmt.Errorf("edge %d (%d,%d) is out of range for %d genes", k, e.I, e.J, c.n)
		}
		if !(e.Weight >= out.threshold) {
			return fmt.Errorf("edge %d (%d,%d) weight %v is below the threshold %v", k, e.I, e.J, e.Weight, out.threshold)
		}
	}
	for _, k := range spotSample(len(out.edges)) {
		e := out.edges[k]
		want := mi.PairReference(c.basis, c.norm.Row(e.I), c.norm.Row(e.J))
		if math.Abs(e.Weight-want) > c.tol {
			return fmt.Errorf("edge (%d,%d) weight %v, reference MI %v", e.I, e.J, e.Weight, want)
		}
	}
	if c.ref != nil {
		if math.Float64bits(out.threshold) != math.Float64bits(c.ref.threshold) {
			return fmt.Errorf("threshold %v, host reference %v", out.threshold, c.ref.threshold)
		}
		if len(out.edges) != len(c.ref.edges) {
			return fmt.Errorf("%d edges, host reference has %d", len(out.edges), len(c.ref.edges))
		}
		for k, e := range out.edges {
			r := c.ref.edges[k]
			if e.I != r.I || e.J != r.J || math.Float64bits(e.Weight) != math.Float64bits(r.Weight) {
				return fmt.Errorf("edge %d is %v, host reference has %v", k, e, r)
			}
		}
	}
	return nil
}

// spotSample picks which edges of an n-edge network get their weight
// recomputed. It depends only on n, so corrupting a weight never moves
// the sample.
func spotSample(n int) []int {
	if n <= miSpotChecks {
		idx := make([]int, n)
		for k := range idx {
			idx[k] = k
		}
		return idx
	}
	rng := perm.NewRNG(uint64(n))
	idx := make([]int, miSpotChecks)
	for k := range idx {
		idx[k] = rng.Intn(n)
	}
	return idx
}

// selfTest corrupts a network that passes the check in several ways and
// returns an error unless the checker rejects every corruption.
func (c *checker) selfTest(good network) error {
	if err := c.check(good); err != nil {
		return fmt.Errorf("self-test: the uncorrupted network fails: %w", err)
	}
	if len(good.edges) < 2 {
		return fmt.Errorf("self-test: need at least 2 edges, have %d", len(good.edges))
	}
	withEdges := func(edit func(es []grn.Edge) []grn.Edge) network {
		es := edit(append([]grn.Edge(nil), good.edges...))
		return network{tsv: writeEdgesTSV(es), edges: es, threshold: good.threshold}
	}
	cases := map[string]network{
		"self-loop": withEdges(func(es []grn.Edge) []grn.Edge {
			es[0].J = es[0].I
			return es
		}),
		"weight below threshold": withEdges(func(es []grn.Edge) []grn.Edge {
			es[len(es)-1].Weight = math.Nextafter(good.threshold, 0)
			return es
		}),
		"wrong weight": withEdges(func(es []grn.Edge) []grn.Edge {
			es[spotSample(len(es))[0]].Weight += 0.5
			return es
		}),
	}
	if good.tsv != nil {
		cases["TSV line lost"] = network{tsv: good.tsv[bytes.IndexByte(good.tsv, '\n')+1:], edges: good.edges, threshold: good.threshold}
	}
	if c.ref != nil {
		cases["edge dropped"] = withEdges(func(es []grn.Edge) []grn.Edge { return es[1:] })
		cases["weight off by one ulp"] = withEdges(func(es []grn.Edge) []grn.Edge {
			es[len(es)/2].Weight = math.Nextafter(es[len(es)/2].Weight, math.Inf(1))
			return es
		})
	}
	for name, bad := range cases {
		if good.tsv == nil {
			bad.tsv = nil
		}
		if c.check(bad) == nil {
			return fmt.Errorf("self-test: a network with %s passes the check", name)
		}
	}
	return nil
}

// writeEdgesTSV writes edges in the program's numeric network TSV form.
func writeEdgesTSV(es []grn.Edge) []byte {
	var b bytes.Buffer
	for _, e := range es {
		fmt.Fprintf(&b, "%d\t%d\t%.6g\n", e.I, e.J, e.Weight)
	}
	return b.Bytes()
}
