package expr

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadTSV asserts the expression parser never panics and that any
// successfully parsed dataset survives a write/read round trip.
func FuzzReadTSV(f *testing.F) {
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\n")
	f.Add("gene\tE0\nG0\t1e-3\nG1\t-4.25\n")
	f.Add("")
	f.Add("gene\n")
	f.Add("gene\tE0\nG0\tnot-a-number\n")
	f.Add("gene\tE0\tE1\nG0\t1\n")
	f.Add("gene\tE0\nG0\tNaN\n")
	f.Add("gene\tE0\nG0\t+Inf\n")
	f.Add("\x00\t\x01\n\xff\t2\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadTSV(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if d.N() == 0 || d.M() == 0 {
			t.Fatalf("accepted dataset with empty dimension %dx%d", d.N(), d.M())
		}
		// Round trip: parse(write(parse(x))) must equal parse(x) when
		// values are finite (non-finite values do not round-trip through
		// %g in a comparable way).
		if !d.Expr.IsFinite() {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteTSV(&buf); err != nil {
			t.Fatalf("WriteTSV of parsed dataset failed: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if back.N() != d.N() || back.M() != d.M() {
			t.Fatalf("round-trip shape %dx%d != %dx%d", back.N(), back.M(), d.N(), d.M())
		}
		if !back.Expr.Equal(d.Expr, 1e-6) {
			t.Fatal("round-trip values differ")
		}
	})
}

// FuzzStreamTSV pins the streaming loader to the staged one: for any
// input, StreamTSV and ReadTSV must agree on accept/reject, and on
// accept must produce identical datasets (gene names, shape, values —
// NaN matching NaN, since NA fields parse to NaN).
func FuzzStreamTSV(f *testing.F) {
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\n")
	f.Add("gene\tE0\nG0\t1e-3\nG1\t-4.25\n")
	f.Add("gene\tE0\tE1\nG0\tNA\t\nG1\tna\tN/A\n")
	f.Add("gene\tE0\nG0\t1\n\nG1\t2\n")
	f.Add("")
	// Malformed header: too few fields to carry any experiment column.
	f.Add("gene\n")
	f.Add("just-one-field-no-tabs")
	// Truncated rows: fewer fields than the header promises, including a
	// final line cut mid-row with no trailing newline.
	f.Add("gene\tE0\tE1\nG0\t1\n")
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\nG1\t0.1")
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\nG1\t0.1\t")
	f.Add("gene\tE0\nG0\tnot-a-number\n")
	f.Add("gene\tE0\nG0\t+Inf\n")
	f.Add("\x00\t\x01\n\xff\t2\n")
	// A repeated gene row, separated from its first copy by a blank line.
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\n\nG0\t0.1\t0.2\n")
	// A gene with no observed value, after a valid one.
	f.Add("gene\tE0\tE1\nG0\t0.5\t0.25\nG1\tNA\t\n")
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := ReadTSV(strings.NewReader(input))
		got, gotErr := StreamTSV(strings.NewReader(input))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject mismatch: ReadTSV err=%v, StreamTSV err=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("shape %dx%d != %dx%d", got.N(), got.M(), want.N(), want.M())
		}
		for i, g := range want.Genes {
			if got.Genes[i] != g {
				t.Fatalf("gene %d: %q != %q", i, got.Genes[i], g)
			}
		}
		for i := 0; i < want.N(); i++ {
			wr, gr := want.Expr.Row(i), got.Expr.Row(i)
			for j := range wr {
				w, g := wr[j], gr[j]
				wNaN, gNaN := math.IsNaN(float64(w)), math.IsNaN(float64(g))
				if wNaN != gNaN || (!wNaN && w != g) {
					t.Fatalf("value (%d,%d): %v != %v", i, j, g, w)
				}
			}
		}
	})
}
