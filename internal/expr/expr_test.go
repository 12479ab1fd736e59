package expr

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/stats"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Genes: 0, Experiments: 10}); err == nil {
		t.Fatal("zero genes should error")
	}
	if _, err := Generate(GenConfig{Genes: 10, Experiments: 0}); err == nil {
		t.Fatal("zero experiments should error")
	}
	if _, err := Generate(GenConfig{Genes: 10, Experiments: 10, AvgRegulators: -1}); err == nil {
		t.Fatal("negative regulators should error")
	}
	if _, err := Generate(GenConfig{Genes: 10, Experiments: 10, Noise: -0.5}); err == nil {
		t.Fatal("negative noise should error")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGenerate(GenConfig{Genes: -1, Experiments: 1})
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	cfg := GenConfig{Genes: 50, Experiments: 30, Seed: 5}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if a.N() != 50 || a.M() != 30 {
		t.Fatalf("shape %dx%d", a.N(), a.M())
	}
	if len(a.Genes) != 50 || a.Genes[0] != "G00000" {
		t.Fatalf("gene names %v...", a.Genes[:2])
	}
	if !a.Expr.Equal(b.Expr, 0) {
		t.Fatal("same seed must generate identical data")
	}
	c := MustGenerate(GenConfig{Genes: 50, Experiments: 30, Seed: 6})
	if a.Expr.Equal(c.Expr, 0) {
		t.Fatal("different seeds should differ")
	}
	if !a.Expr.IsFinite() {
		t.Fatal("generated data must be finite")
	}
}

func TestTopologyAcyclicAndDegrees(t *testing.T) {
	for _, topo := range []Topology{ScaleFree, ErdosRenyi} {
		d := MustGenerate(GenConfig{Genes: 200, Experiments: 5, Topology: topo, AvgRegulators: 3, Seed: 7})
		edges := 0
		for g, regs := range d.Truth {
			seen := map[int]bool{}
			for _, r := range regs {
				if r >= g {
					t.Fatalf("topo %d: gene %d regulated by %d (not acyclic)", topo, g, r)
				}
				if seen[r] {
					t.Fatalf("topo %d: duplicate regulator %d of gene %d", topo, r, g)
				}
				seen[r] = true
				edges++
			}
			if g >= 3 && len(regs) != 0 && len(regs) != 3 {
				t.Fatalf("topo %d: gene %d has %d regulators, want 0 (root) or 3", topo, g, len(regs))
			}
		}
		if edges == 0 {
			t.Fatalf("topo %d: no edges", topo)
		}
	}
}

func TestScaleFreeIsSkewed(t *testing.T) {
	// Preferential attachment should concentrate out-degree: the top hub
	// in a scale-free graph should have far higher degree than in an ER
	// graph of identical size.
	degreeMax := func(topo Topology) int {
		d := MustGenerate(GenConfig{Genes: 400, Experiments: 2, Topology: topo, AvgRegulators: 2, Seed: 11})
		deg := make([]int, 400)
		for g, regs := range d.Truth {
			for _, r := range regs {
				deg[r]++
				deg[g]++
			}
		}
		max := 0
		for _, v := range deg {
			if v > max {
				max = v
			}
		}
		return max
	}
	sf, er := degreeMax(ScaleFree), degreeMax(ErdosRenyi)
	if sf <= er {
		t.Fatalf("scale-free hub degree %d should exceed ER %d", sf, er)
	}
}

func TestTrueEdgeSet(t *testing.T) {
	d := &Dataset{Truth: [][]int{nil, {0}, {0, 1}}}
	d.Expr = MustGenerate(GenConfig{Genes: 3, Experiments: 2, Seed: 1}).Expr
	set := d.TrueEdgeSet()
	if len(set) != 3 {
		t.Fatalf("edge set size %d, want 3", len(set))
	}
	n := int64(3)
	for _, key := range []int64{0*n + 1, 0*n + 2, 1*n + 2} {
		if !set[key] {
			t.Fatalf("missing edge key %d", key)
		}
	}
}

func TestRegulatedGenesCorrelateWithRegulators(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 30, Experiments: 500, AvgRegulators: 1, Noise: 0.05, Seed: 13})
	// A gene with exactly one regulator should show strong |corr| with
	// it; compare against the mean |corr| with non-regulators.
	var onReg, offReg []float64
	for g, regs := range d.Truth {
		if len(regs) != 1 {
			continue
		}
		x := toF64(d.Expr.Row(g))
		for other := 0; other < d.N(); other++ {
			if other == g {
				continue
			}
			r := math.Abs(stats.Pearson(x, toF64(d.Expr.Row(other))))
			if other == regs[0] {
				onReg = append(onReg, r)
			} else {
				offReg = append(offReg, r)
			}
		}
	}
	if len(onReg) == 0 {
		t.Skip("no single-regulator genes in this draw")
	}
	if stats.Mean(onReg) <= stats.Mean(offReg)+0.1 {
		t.Fatalf("regulator corr %v not clearly above background %v",
			stats.Mean(onReg), stats.Mean(offReg))
	}
}

func toF64(x []float32) []float64 {
	o := make([]float64, len(x))
	for i, v := range x {
		o[i] = float64(v)
	}
	return o
}

func TestTSVRoundTrip(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 8, Experiments: 5, Seed: 3})
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 8 || got.M() != 5 {
		t.Fatalf("round-trip shape %dx%d", got.N(), got.M())
	}
	for g := 0; g < 8; g++ {
		if got.Genes[g] != d.Genes[g] {
			t.Fatalf("gene name %q != %q", got.Genes[g], d.Genes[g])
		}
	}
	if !got.Expr.Equal(d.Expr, 1e-6) {
		t.Fatal("round-trip values differ")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"header-only":    "gene\tE0\n",
		"short-header":   "gene\n",
		"ragged":         "gene\tE0\tE1\nG0\t1.0\n",
		"bad-number":     "gene\tE0\nG0\tnotanumber\n",
		"duplicate-gene": "gene\tE0\nG0\t1\nG1\t2\nG0\t3\n",
		"all-missing":    "gene\tE0\tE1\nG0\t1\t2\nG1\tNA\t\n",
		"all-nan":        "gene\tE0\tE1\nG0\tNaN\tna\nG1\t1\t2\n",
	}
	for name, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	_, err := ReadTSV(strings.NewReader(cases["all-missing"]))
	if want := `expr: line 3: gene "G1" has no observed values`; err == nil || err.Error() != want {
		t.Fatalf("all-missing: error %v, want %q", err, want)
	}
}

func TestReadTSVTrailingBlankLine(t *testing.T) {
	in := "gene\tE0\tE1\nG0\t0.5\t0.25\n\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 1 || d.Expr.At(0, 1) != 0.25 {
		t.Fatalf("parsed %dx%d At(0,1)=%v", d.N(), d.M(), d.Expr.At(0, 1))
	}
}

func TestSingleGeneDataset(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 1, Experiments: 10, Seed: 1})
	if len(d.Truth[0]) != 0 {
		t.Fatal("single gene cannot have regulators")
	}
	if len(d.TrueEdgeSet()) != 0 {
		t.Fatal("single gene edge set must be empty")
	}
}

func BenchmarkGenerate1000x337(b *testing.B) {
	cfg := GenConfig{Genes: 1000, Experiments: 337, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg)
	}
}

func TestKnockoutFractionValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Genes: 5, Experiments: 5, KnockoutFraction: 1.5}); err == nil {
		t.Fatal("KnockoutFraction > 1 should error")
	}
	if _, err := Generate(GenConfig{Genes: 5, Experiments: 5, KnockoutFraction: -0.1}); err == nil {
		t.Fatal("negative KnockoutFraction should error")
	}
}

func TestKnockoutsSuppressExpression(t *testing.T) {
	// With every experiment a knockout and no noise, each experiment
	// must contain exactly one near-zero gene among the non-roots.
	d := MustGenerate(GenConfig{
		Genes: 20, Experiments: 200, KnockoutFraction: 1,
		Noise: 0.001, Seed: 21,
	})
	zeroish := 0
	for e := 0; e < d.M(); e++ {
		for g := 0; g < d.N(); g++ {
			if v := d.Expr.At(g, e); v > -0.01 && v < 0.01 {
				zeroish++
			}
		}
	}
	// At least one knockout per experiment (roots sit ~uniform in (0,1),
	// regulated genes near sigmoid outputs; exact zeros come from
	// knockouts). Sigmoid outputs can also be near zero under strong
	// repression, so only lower-bound the count.
	if zeroish < d.M() {
		t.Fatalf("found %d near-zero values, want >= %d (one per experiment)", zeroish, d.M())
	}
	// Determinism with knockouts.
	d2 := MustGenerate(GenConfig{
		Genes: 20, Experiments: 200, KnockoutFraction: 1,
		Noise: 0.001, Seed: 21,
	})
	if !d.Expr.Equal(d2.Expr, 0) {
		t.Fatal("knockout mode must stay deterministic")
	}
}

func TestKnockoutZeroFractionMatchesObservational(t *testing.T) {
	a := MustGenerate(GenConfig{Genes: 10, Experiments: 30, Seed: 5})
	b := MustGenerate(GenConfig{Genes: 10, Experiments: 30, Seed: 5, KnockoutFraction: 0})
	if !a.Expr.Equal(b.Expr, 0) {
		t.Fatal("zero knockout fraction must not change the stream")
	}
}

func TestReadTSVMissingValues(t *testing.T) {
	in := "gene\tE0\tE1\tE2\nG0\t1\tNA\t3\nG1\t\t2\tN/A\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MissingCount(); got != 3 {
		t.Fatalf("MissingCount = %d, want 3", got)
	}
	if !math.IsNaN(float64(d.Expr.At(0, 1))) {
		t.Fatal("NA should parse to NaN")
	}
	n := d.ImputeRowMean()
	if n != 3 {
		t.Fatalf("imputed %d, want 3", n)
	}
	// G0 observed mean = 2.
	if d.Expr.At(0, 1) != 2 {
		t.Fatalf("imputed value = %v, want 2", d.Expr.At(0, 1))
	}
	if d.MissingCount() != 0 || !d.Expr.IsFinite() {
		t.Fatal("matrix should be complete after imputation")
	}
}

// TestImputeAllMissingRow covers the library-level fallback for a gene
// with no observed value. The parsers refuse such a gene (see
// TestReadTSVErrors), so the dataset is built directly.
func TestImputeAllMissingRow(t *testing.T) {
	nan := float32(math.NaN())
	d := &Dataset{Genes: []string{"G0"}, Expr: mat.FromRows([][]float32{{nan, nan}}), Truth: make([][]int, 1)}
	d.ImputeRowMean()
	if d.Expr.At(0, 0) != 0.5 || d.Expr.At(0, 1) != 0.5 {
		t.Fatalf("all-missing row should fill 0.5, got %v/%v", d.Expr.At(0, 0), d.Expr.At(0, 1))
	}
}

func TestImputeNoMissingIsNoop(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 5, Experiments: 10, Seed: 9})
	before := d.Expr.Clone()
	if n := d.ImputeRowMean(); n != 0 {
		t.Fatalf("imputed %d on complete matrix", n)
	}
	if !d.Expr.Equal(before, 0) {
		t.Fatal("imputation mutated complete matrix")
	}
}

func TestSubset(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 20, Experiments: 10, Seed: 30})
	sub := d.Subset(8)
	if sub.N() != 8 || sub.M() != 10 {
		t.Fatalf("subset shape %dx%d", sub.N(), sub.M())
	}
	for g := 0; g < 8; g++ {
		if sub.Genes[g] != d.Genes[g] {
			t.Fatalf("gene %d name mismatch", g)
		}
		for _, r := range sub.Truth[g] {
			if r >= 8 {
				t.Fatalf("subset truth references gene %d >= 8", r)
			}
		}
		for s := 0; s < 10; s++ {
			if sub.Expr.At(g, s) != d.Expr.At(g, s) {
				t.Fatalf("value mismatch at (%d,%d)", g, s)
			}
		}
	}
	// Independent storage.
	sub.Expr.Set(0, 0, 99)
	if d.Expr.At(0, 0) == 99 {
		t.Fatal("Subset must copy")
	}
	for _, bad := range []int{0, 21, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Subset(%d) should panic", bad)
				}
			}()
			d.Subset(bad)
		}()
	}
}
