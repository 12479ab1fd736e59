package expr

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestStreamTSVMatchesReadTSV round-trips a generated dataset through
// WriteTSV and checks the streaming loader reproduces exactly what the
// staged loader parses.
func TestStreamTSVMatchesReadTSV(t *testing.T) {
	d := MustGenerate(GenConfig{Genes: 40, Experiments: 23, Seed: 7})
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	want, err := ReadTSV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamTSV(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape %dx%d, want %dx%d", got.N(), got.M(), want.N(), want.M())
	}
	for i, g := range want.Genes {
		if got.Genes[i] != g {
			t.Fatalf("gene %d: %q != %q", i, got.Genes[i], g)
		}
	}
	if !got.Expr.Equal(want.Expr, 0) {
		t.Fatal("streamed matrix differs from staged matrix")
	}
}

func TestStreamTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty input":      "",
		"header too short": "gene\n",
		"truncated row":    "gene\tE0\tE1\nG0\t1\n",
		"extra field":      "gene\tE0\nG0\t1\t2\n",
		"bad number":       "gene\tE0\nG0\tnot-a-number\n",
		"no gene rows":     "gene\tE0\n",
		"duplicate-gene":   "gene\tE0\nG0\t1\nG1\t2\nG0\t3\n",
		"all-missing":      "gene\tE0\tE1\nG0\t1\t2\nG1\tNA\t\n",
		"all-nan":          "gene\tE0\tE1\nG0\tNaN\tna\nG1\t1\t2\n",
	}
	for name, input := range cases {
		if _, err := StreamTSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	_, _, err := StreamTSVRows(strings.NewReader(cases["all-missing"]), func(string, []float32) error { return nil })
	if want := `expr: line 3: gene "G1" has no observed values`; err == nil || err.Error() != want {
		t.Errorf("all-missing: StreamTSVRows error %v, want %q", err, want)
	}
}

func TestStreamTSVMissingValues(t *testing.T) {
	d, err := StreamTSV(strings.NewReader("gene\tE0\tE1\tE2\tE3\tE4\nG0\tNA\t\tna\tN/A\t7\nG1\t1\t2\t3\t4\t5\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || d.M() != 5 {
		t.Fatalf("shape %dx%d, want 2x5", d.N(), d.M())
	}
	for j := 0; j < 4; j++ {
		if !math.IsNaN(float64(d.Expr.At(0, j))) {
			t.Fatalf("missing value (0,%d) parsed as %v, want NaN", j, d.Expr.At(0, j))
		}
	}
	if d.Expr.At(0, 4) != 7 || d.Expr.At(1, 3) != 4 {
		t.Fatalf("values (0,4), (1,3) = %v, %v, want 7, 4", d.Expr.At(0, 4), d.Expr.At(1, 3))
	}
	if len(d.Truth) != 2 {
		t.Fatalf("Truth len %d, want 2", len(d.Truth))
	}
}

// TestStreamTSVPeakIngestBytes pins the streaming loader's memory
// contract: after ingest the returned matrix retains exactly rows*cols
// floats — the geometric append slack (up to ~2x on a whole-genome
// load) is released by the final Shrink. 600 genes outgrow the 256-row
// capacity hint twice, so without the Shrink the backing array would
// hold 1024 rows' worth of floats.
func TestStreamTSVPeakIngestBytes(t *testing.T) {
	const rows, cols = 600, 9
	d := MustGenerate(GenConfig{Genes: rows, Experiments: cols, Seed: 11})
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := StreamTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != rows || ds.M() != cols {
		t.Fatalf("shape %dx%d, want %dx%d", ds.N(), ds.M(), rows, cols)
	}
	if got := cap(ds.Expr.Data()); got != rows*cols {
		t.Fatalf("retained backing capacity %d floats (%d bytes), want exactly %d (%d bytes): ingest slack not released",
			got, got*4, rows*cols, rows*cols*4)
	}
	// And the shrunk matrix is still the same data the staged loader sees.
	want, err := ReadTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Expr.Equal(want.Expr, 0) {
		t.Fatal("shrunk streamed matrix differs from staged matrix")
	}
}
