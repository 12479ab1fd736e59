package soft

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
)

const sampleSeries = `^DATABASE = GEO
!Database_name = Gene Expression Omnibus
^SERIES = GSE0001
!Series_title = synthetic test series
!Series_sample_count = 2
^PLATFORM = GPL0001
!Platform_organism = Arabidopsis thaliana
^SAMPLE = GSM0001
!Sample_title = control
!sample_table_begin
ID_REF	VALUE
AT1G01010	1.5
AT1G01020	2.25
AT1G01030	null
!sample_table_end
^SAMPLE = GSM0002
!Sample_title = treatment
!sample_table_begin
ID_REF	VALUE
AT1G01010	3.5
AT1G01020	4.25
AT1G01030	0.5
!sample_table_end
`

func TestParseSeries(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleSeries))
	if err != nil {
		t.Fatal(err)
	}
	if f.Series["Series_title"] != "synthetic test series" {
		t.Fatalf("series title = %q", f.Series["Series_title"])
	}
	if f.Platform["Platform_organism"] != "Arabidopsis thaliana" {
		t.Fatalf("platform organism = %q", f.Platform["Platform_organism"])
	}
	if len(f.Samples) != 2 {
		t.Fatalf("samples = %d", len(f.Samples))
	}
	s0 := f.Samples[0]
	if s0.ID != "GSM0001" || s0.Attributes["Sample_title"] != "control" {
		t.Fatalf("sample 0 = %+v", s0)
	}
	if s0.Values["AT1G01010"] != 1.5 {
		t.Fatalf("value = %v", s0.Values["AT1G01010"])
	}
	if !math.IsNaN(s0.Values["AT1G01030"]) {
		t.Fatal("null should parse as NaN")
	}
}

func TestAssembleFromSamples(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleSeries))
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.M() != 2 {
		t.Fatalf("assembled %dx%d", d.N(), d.M())
	}
	// Probes sorted lexicographically.
	if d.Genes[0] != "AT1G01010" || d.Genes[2] != "AT1G01030" {
		t.Fatalf("genes = %v", d.Genes)
	}
	if d.Expr.At(1, 1) != 4.25 {
		t.Fatalf("At(1,1) = %v", d.Expr.At(1, 1))
	}
	if d.MissingCount() != 1 {
		t.Fatalf("missing = %d, want 1", d.MissingCount())
	}
}

const datasetFile = `^DATASET = GDS0001
!dataset_title = combined
!dataset_table_begin
ID_REF	IDENTIFIER	GSM1	GSM2	GSM3
P1	geneA	1	2	3
P2	geneB	4		6
!dataset_table_end
`

func TestParseDatasetTable(t *testing.T) {
	f, err := Parse(strings.NewReader(datasetFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.SampleOrder) != 3 || f.SampleOrder[0] != "GSM1" {
		t.Fatalf("sample order = %v", f.SampleOrder)
	}
	d, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || d.M() != 3 {
		t.Fatalf("assembled %dx%d", d.N(), d.M())
	}
	if d.Expr.At(0, 2) != 3 {
		t.Fatalf("At(0,2) = %v", d.Expr.At(0, 2))
	}
	if !math.IsNaN(float64(d.Expr.At(1, 1))) {
		t.Fatal("empty dataset cell should be NaN")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown-entity":     "^BOGUS = x\n",
		"table-outside":      "!sample_table_begin\n",
		"stray-end":          "!sample_table_end\n",
		"dataset-outside":    "!dataset_table_begin\n",
		"stray-dataset-end":  "!dataset_table_end\n",
		"data-outside-table": "just some text\n",
		"bad-sample-header":  "^SAMPLE = s\n!sample_table_begin\nWRONG\tVALUE2\nx\t1\n!sample_table_end\n",
		"short-row":          "^SAMPLE = s\n!sample_table_begin\nID_REF\tEXTRA\tVALUE\np\t1\n!sample_table_end\n",
		"unterminated":       "^SAMPLE = s\n!sample_table_begin\nID_REF\tVALUE\n",
		"entity-in-table":    "^SAMPLE = s\n!sample_table_begin\nID_REF\tVALUE\n^SAMPLE = t\n",
		"bad-dataset-header": "^DATASET = d\n!dataset_table_begin\nWRONG\tID\tGSM1\n!dataset_table_end\n",
		"ragged-dataset":     "^DATASET = d\n!dataset_table_begin\nID_REF\tIDENTIFIER\tGSM1\nP1\tg\t1\t2\n!dataset_table_end\n",
		"duplicate-id-ref":   "^DATASET = d\n!dataset_table_begin\nID_REF\tIDENTIFIER\tGSM1\nP1\tg\t1\nP1\th\t2\n!dataset_table_end\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := (&File{}).Assemble(); err == nil {
		t.Fatal("no samples should error")
	}
	f := &File{Samples: []Sample{
		{ID: "a", Values: map[string]float64{"p1": 1}},
		{ID: "b", Values: map[string]float64{"p2": 2}},
	}}
	if _, err := f.Assemble(); err == nil {
		t.Fatal("disjoint probes should error")
	}
	empty := &File{Dataset: map[string][]float64{}}
	if _, err := empty.Assemble(); err == nil {
		t.Fatal("empty dataset table should error")
	}
}

func TestWriteSeriesRoundTrip(t *testing.T) {
	d := expr.MustGenerate(expr.GenConfig{Genes: 6, Experiments: 4, Seed: 2})
	var buf bytes.Buffer
	if err := WriteSeries(&buf, d, "GSE-TEST"); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Series["Series_title"] != "GSE-TEST" {
		t.Fatalf("title = %q", f.Series["Series_title"])
	}
	back, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 || back.M() != 4 {
		t.Fatalf("round trip %dx%d", back.N(), back.M())
	}
	if !back.Expr.Equal(d.Expr, 1e-5) {
		t.Fatal("round-trip values differ")
	}
}

func TestWriteSeriesNaN(t *testing.T) {
	d := expr.MustGenerate(expr.GenConfig{Genes: 2, Experiments: 2, Seed: 3})
	d.Expr.Set(0, 0, float32(math.NaN()))
	var buf bytes.Buffer
	if err := WriteSeries(&buf, d, "X"); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if back.MissingCount() != 1 {
		t.Fatalf("missing = %d, want 1", back.MissingCount())
	}
}

func TestParseCRLF(t *testing.T) {
	crlf := strings.ReplaceAll(sampleSeries, "\n", "\r\n")
	f, err := Parse(strings.NewReader(crlf))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Samples) != 2 {
		t.Fatalf("CRLF samples = %d", len(f.Samples))
	}
}

func FuzzParse(f *testing.F) {
	f.Add(sampleSeries)
	f.Add(datasetFile)
	f.Add("")
	f.Add("^SAMPLE\n!x\n#y\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parses must be assemblable or produce a clean error.
		if _, err := file.Assemble(); err != nil {
			return
		}
	})
}
