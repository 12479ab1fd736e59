// Package expr generates and loads gene-expression datasets.
//
// The paper evaluates on 3,137 Arabidopsis thaliana microarray
// experiments over 15,575 genes — proprietary-scale real data we cannot
// ship. This package substitutes a synthetic generator that (a) matches
// the computational shape (any n×m), and (b) carries a known
// ground-truth regulatory network so the reproduction can additionally
// score recovery accuracy:
//
//   - Topology: a scale-free directed regulatory graph built by
//     preferential attachment (biological GRNs are approximately
//     scale-free), or Erdős–Rényi for controls.
//   - Dynamics: each experiment is a random perturbation of the
//     regulator expressions propagated through sigmoidal regulation
//     functions in topological order, plus additive measurement noise —
//     the standard steady-state GRN simulation recipe.
//
// Datasets round-trip through a simple TSV format compatible with
// typical expression matrices (header row of experiment names, one row
// per gene: name + m values).
package expr

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mat"
	"repro/internal/perm"
)

// Dataset is an expression matrix with gene names and, for synthetic
// data, the generating ground-truth network.
type Dataset struct {
	Genes []string
	// Expr is n×m: row g holds gene g's expression across m experiments.
	Expr *mat.Dense
	// Truth[g] lists the regulator gene indices of gene g (empty for
	// loaded real data).
	Truth [][]int
}

// N returns the gene count.
func (d *Dataset) N() int { return d.Expr.Rows() }

// M returns the experiment count.
func (d *Dataset) M() int { return d.Expr.Cols() }

// TrueEdgeSet returns the undirected ground-truth edge set as i*n+j keys
// with i<j. Nil Truth yields an empty set.
func (d *Dataset) TrueEdgeSet() map[int64]bool {
	n := d.N()
	set := make(map[int64]bool)
	for g, regs := range d.Truth {
		for _, r := range regs {
			i, j := r, g
			if i > j {
				i, j = j, i
			}
			if i != j {
				set[int64(i)*int64(n)+int64(j)] = true
			}
		}
	}
	return set
}

// Topology selects the ground-truth graph family.
type Topology int

// Supported topologies.
const (
	// ScaleFree grows the regulator graph by preferential attachment.
	ScaleFree Topology = iota
	// ErdosRenyi assigns each gene regulators chosen uniformly.
	ErdosRenyi
)

// GenConfig parameterizes synthetic dataset generation.
type GenConfig struct {
	Genes       int      // number of genes n
	Experiments int      // number of experiments m
	Topology    Topology // regulatory graph family
	// AvgRegulators is the mean in-degree of non-root genes
	// (default 2).
	AvgRegulators int
	// Noise is the measurement noise standard deviation relative to the
	// signal range (default 0.1).
	Noise float64
	// RootFraction is the probability that a gene is an independent
	// root (driven directly by experimental conditions rather than by
	// regulators). Default 0.15. Without multiple roots the whole
	// network is driven by one source and everything correlates with
	// everything.
	RootFraction float64
	// KnockoutFraction is the fraction of experiments that are
	// single-gene knockouts (a random gene is clamped to zero
	// expression before propagation), mimicking perturbation
	// compendia such as the DREAM benchmarks. Default 0
	// (purely observational data, like the paper's microarrays).
	KnockoutFraction float64
	// TimeSeries switches from independent steady-state experiments to
	// one temporal trajectory: column t is time point t, each gene
	// responds to its regulators' levels at t−1, and root genes follow
	// slow mean-reverting random walks. Time-series data enables
	// directed inference via lagged MI (mi.LaggedMI); knockouts do not
	// apply in this mode.
	TimeSeries bool
	// Seed drives all randomness; equal configs generate equal data.
	Seed uint64
}

func (c *GenConfig) fill() error {
	if c.Genes <= 0 {
		return fmt.Errorf("expr: non-positive gene count %d", c.Genes)
	}
	if c.Experiments <= 0 {
		return fmt.Errorf("expr: non-positive experiment count %d", c.Experiments)
	}
	if c.AvgRegulators == 0 {
		c.AvgRegulators = 2
	}
	if c.AvgRegulators < 0 {
		return fmt.Errorf("expr: negative AvgRegulators %d", c.AvgRegulators)
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	if c.Noise < 0 {
		return fmt.Errorf("expr: negative Noise %v", c.Noise)
	}
	if c.RootFraction == 0 {
		c.RootFraction = 0.15
	}
	if c.RootFraction < 0 || c.RootFraction > 1 {
		return fmt.Errorf("expr: RootFraction %v out of [0,1]", c.RootFraction)
	}
	if c.KnockoutFraction < 0 || c.KnockoutFraction > 1 {
		return fmt.Errorf("expr: KnockoutFraction %v out of [0,1]", c.KnockoutFraction)
	}
	return nil
}

// Generate builds a synthetic dataset per the config.
func Generate(cfg GenConfig) (*Dataset, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := perm.NewRNG(cfg.Seed)
	n, m := cfg.Genes, cfg.Experiments
	truth := buildTopology(cfg, rng.Split(1))
	d := &Dataset{
		Genes: make([]string, n),
		Expr:  mat.NewDense(n, m),
		Truth: truth,
	}
	for g := range d.Genes {
		d.Genes[g] = fmt.Sprintf("G%05d", g)
	}
	simulate(d, cfg, rng.Split(2))
	return d, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(cfg GenConfig) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// buildTopology returns Truth: regulators per gene, acyclic because a
// gene's regulators always have smaller indices (genes are "born" in
// index order).
func buildTopology(cfg GenConfig, rng *perm.RNG) [][]int {
	n := cfg.Genes
	truth := make([][]int, n)
	if n == 1 {
		return truth
	}
	switch cfg.Topology {
	case ScaleFree:
		// Preferential attachment on the undirected degree: each new
		// gene g chooses up to AvgRegulators regulators among 0..g-1
		// with probability proportional to degree+1.
		degree := make([]int, n)
		for g := 1; g < n; g++ {
			if rng.Float64() < cfg.RootFraction {
				continue // independent root gene
			}
			k := cfg.AvgRegulators
			if k > g {
				k = g
			}
			chosen := map[int]bool{}
			// Weighted sampling without replacement (small k: loop).
			for len(chosen) < k {
				total := 0
				for c := 0; c < g; c++ {
					if !chosen[c] {
						total += degree[c] + 1
					}
				}
				pick := rng.Intn(total)
				for c := 0; c < g; c++ {
					if chosen[c] {
						continue
					}
					pick -= degree[c] + 1
					if pick < 0 {
						chosen[c] = true
						break
					}
				}
			}
			for c := range chosen {
				truth[g] = append(truth[g], c)
				degree[c]++
				degree[g]++
			}
			sort.Ints(truth[g])
		}
	case ErdosRenyi:
		for g := 1; g < n; g++ {
			if rng.Float64() < cfg.RootFraction {
				continue
			}
			k := cfg.AvgRegulators
			if k > g {
				k = g
			}
			chosen := map[int]bool{}
			for len(chosen) < k {
				chosen[rng.Intn(g)] = true
			}
			for c := range chosen {
				truth[g] = append(truth[g], c)
			}
			sort.Ints(truth[g])
		}
	default:
		panic(fmt.Sprintf("expr: unknown topology %d", cfg.Topology))
	}
	return truth
}

// sigmoid is the regulation response function.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// simulate fills d.Expr: for each experiment, roots get random inputs
// and downstream genes respond through signed sigmoidal regulation, with
// additive Gaussian noise.
func simulate(d *Dataset, cfg GenConfig, rng *perm.RNG) {
	n, m := d.N(), d.M()
	// Fixed signed regulation strengths per edge.
	strength := make([][]float64, n)
	for g := 0; g < n; g++ {
		strength[g] = make([]float64, len(d.Truth[g]))
		for e := range strength[g] {
			s := 2 + 2*rng.Float64() // |strength| in [2,4): strong coupling
			if rng.Intn(2) == 0 {
				s = -s
			}
			strength[g][e] = s
		}
	}
	if cfg.TimeSeries {
		simulateTimeSeries(d, cfg, rng)
		return
	}
	level := make([]float64, n)
	for exp := 0; exp < m; exp++ {
		knockout := -1
		if rng.Float64() < cfg.KnockoutFraction {
			knockout = rng.Intn(n)
		}
		for g := 0; g < n; g++ {
			if g == knockout {
				// Knocked-out gene: transcript absent regardless of
				// regulators; downstream genes see the zero level.
				level[g] = 0
				d.Expr.Set(g, exp, float32(cfg.Noise*rng.NormFloat64()))
				continue
			}
			if len(d.Truth[g]) == 0 {
				// Root gene: independent condition-driven level.
				level[g] = rng.Float64()
			} else {
				var in float64
				for e, r := range d.Truth[g] {
					in += strength[g][e] * (level[r] - 0.5)
				}
				// Intrinsic (process) noise propagates downstream,
				// attenuating indirect correlations relative to direct
				// regulation — without it every path through a hub
				// carries as much information as a direct edge.
				level[g] = sigmoid(in) + 0.5*cfg.Noise*rng.NormFloat64()
			}
			v := level[g] + cfg.Noise*rng.NormFloat64()
			d.Expr.Set(g, exp, float32(v))
		}
	}
}

// Subset returns a new dataset keeping only the first n genes (a
// common way to scale whole-genome inputs down for calibration runs).
// Ground-truth regulators always have smaller indices than their
// targets, so truncation preserves a valid truth. It panics when n is
// out of range.
func (d *Dataset) Subset(n int) *Dataset {
	if n < 1 || n > d.N() {
		panic(fmt.Sprintf("expr: subset size %d out of [1,%d]", n, d.N()))
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	truth := make([][]int, n)
	for g := 0; g < n; g++ {
		truth[g] = append([]int(nil), d.Truth[g]...)
	}
	return &Dataset{
		Genes: append([]string(nil), d.Genes[:n]...),
		Expr:  d.Expr.SelectRows(rows),
		Truth: truth,
	}
}

// MissingCount returns the number of NaN entries in the expression
// matrix.
func (d *Dataset) MissingCount() int {
	count := 0
	for g := 0; g < d.N(); g++ {
		for _, v := range d.Expr.Row(g) {
			if math.IsNaN(float64(v)) {
				count++
			}
		}
	}
	return count
}

// ImputeRowMean replaces every NaN with its gene's mean over the
// observed values (0.5 for genes with no observations at all, the
// midpoint of the normalized range) and returns the number of values
// imputed. Parsed datasets never hold such a gene: ReadTSV and
// StreamTSVRows reject it, since a constant made-up row would enter
// the network as if it had been measured. The MI pipeline requires a
// complete matrix; row-mean imputation is the standard minimal
// treatment for sparse microarray missingness and is rank-neutral for
// the affected gene.
func (d *Dataset) ImputeRowMean() int {
	imputed := 0
	for g := 0; g < d.N(); g++ {
		imputed += ImputeRowMeanValues(d.Expr.Row(g))
	}
	return imputed
}

// ImputeRowMeanValues is the slice-level imputation behind
// ImputeRowMean: imputation only ever looks at one gene's row, so the
// streaming out-of-core ingest can impute each row as it is parsed —
// before the full matrix would exist — and produce exactly the values
// the resident path does.
func ImputeRowMeanValues(row []float32) int {
	var sum float64
	observed := 0
	for _, v := range row {
		if !math.IsNaN(float64(v)) {
			sum += float64(v)
			observed++
		}
	}
	if observed == len(row) {
		return 0
	}
	fill := float32(0.5)
	if observed > 0 {
		fill = float32(sum / float64(observed))
	}
	imputed := 0
	for i, v := range row {
		if math.IsNaN(float64(v)) {
			row[i] = fill
			imputed++
		}
	}
	return imputed
}

// simulateTimeSeries fills d.Expr with one trajectory: gene g at time
// t responds to its regulators at t−1 through the same signed sigmoid
// regulation as the steady-state mode, so the causal direction is
// encoded as a one-step lag.
func simulateTimeSeries(d *Dataset, cfg GenConfig, rng *perm.RNG) {
	n, m := d.N(), d.M()
	strength := make([][]float64, n)
	for g := 0; g < n; g++ {
		strength[g] = make([]float64, len(d.Truth[g]))
		for e := range strength[g] {
			s := 2 + 2*rng.Float64()
			if rng.Intn(2) == 0 {
				s = -s
			}
			strength[g][e] = s
		}
	}
	prev := make([]float64, n)
	cur := make([]float64, n)
	for g := range prev {
		prev[g] = rng.Float64()
	}
	for t := 0; t < m; t++ {
		for g := 0; g < n; g++ {
			if len(d.Truth[g]) == 0 {
				// Root: mean-reverting walk so the trajectory keeps
				// exploring the dynamic range.
				cur[g] = prev[g] + 0.3*(0.5-prev[g]) + 0.25*rng.NormFloat64()
				if cur[g] < 0 {
					cur[g] = 0
				}
				if cur[g] > 1 {
					cur[g] = 1
				}
			} else {
				var in float64
				for e, r := range d.Truth[g] {
					in += strength[g][e] * (prev[r] - 0.5)
				}
				cur[g] = sigmoid(in) + 0.5*cfg.Noise*rng.NormFloat64()
			}
			d.Expr.Set(g, t, float32(cur[g]+cfg.Noise*rng.NormFloat64()))
		}
		prev, cur = cur, prev
	}
}

// WriteTSV writes the dataset: a header line "gene\tE0\tE1..." then one
// line per gene.
func (d *Dataset) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("gene"); err != nil {
		return err
	}
	for e := 0; e < d.M(); e++ {
		fmt.Fprintf(bw, "\tE%d", e)
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for g := 0; g < d.N(); g++ {
		if _, err := bw.WriteString(d.Genes[g]); err != nil {
			return err
		}
		row := d.Expr.Row(g)
		for _, v := range row {
			fmt.Fprintf(bw, "\t%g", v)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// checkRow enforces the per-row matrix contract both TSV parsers share:
// gene names are unique, and a gene has at least one observed (non-NaN)
// value — imputation has nothing to work from otherwise. It records
// gene in seen.
func checkRow(line int, gene string, row []float32, seen map[string]bool) error {
	if seen[gene] {
		return fmt.Errorf("expr: line %d: duplicate gene %q", line, gene)
	}
	observed := false
	for _, v := range row {
		if !math.IsNaN(float64(v)) {
			observed = true
			break
		}
	}
	if !observed {
		return fmt.Errorf("expr: line %d: gene %q has no observed values", line, gene)
	}
	seen[gene] = true
	return nil
}

// ReadTSV parses a dataset written by WriteTSV (or any compatible
// header+rows expression TSV). Ground truth is not represented in the
// format, so Truth is empty. Gene names must be unique: a repeated one
// would pair the gene with itself and emit a self-loop edge. Every gene
// needs at least one observed value (see checkRow).
func ReadTSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("expr: empty input")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) < 2 {
		return nil, fmt.Errorf("expr: header has %d fields, want >= 2", len(header))
	}
	m := len(header) - 1
	var genes []string
	var rows [][]float32
	seen := map[string]bool{}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) == 1 && fields[0] == "" {
			continue // trailing blank line
		}
		if len(fields) != m+1 {
			return nil, fmt.Errorf("expr: line %d has %d fields, want %d", line, len(fields), m+1)
		}
		row := make([]float32, m)
		for i, f := range fields[1:] {
			// Microarray exports mark missing measurements as NA (or
			// leave the field empty); represent them as NaN and let the
			// caller impute.
			if f == "" || f == "NA" || f == "na" || f == "N/A" {
				row[i] = float32(math.NaN())
				continue
			}
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("expr: line %d field %d: %w", line, i+2, err)
			}
			row[i] = float32(v)
		}
		if err := checkRow(line, fields[0], row, seen); err != nil {
			return nil, err
		}
		genes = append(genes, fields[0])
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("expr: no gene rows")
	}
	return &Dataset{Genes: genes, Expr: mat.FromRows(rows), Truth: make([][]int, len(rows))}, nil
}
