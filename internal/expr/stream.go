package expr

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/mat"
)

// RowSink receives one parsed gene row during streaming ingest. The row
// slice is scratch owned by the parser and reused for the next row; a
// sink that retains the values must copy them. Returning an error
// aborts the parse with that error.
//
// This is the hook the out-of-core path plugs a spill store into: rows
// flow parser → sink → disk-backed panel store without the full
// expression matrix ever being resident.
type RowSink func(gene string, row []float32) error

// StreamTSVRows parses the header+rows expression TSV exactly like
// StreamTSV but hands each row to sink instead of accumulating a
// matrix. It returns the gene names (one per accepted row) and the
// column count fixed by the header. Accept/reject behavior matches
// ReadTSV/StreamTSV: NA/empty fields become NaN, blank lines are
// skipped, ragged rows, repeated gene names and genes with no observed
// value are errors.
func StreamTSVRows(r io.Reader, sink RowSink) (genes []string, cols int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("expr: empty input")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) < 2 {
		return nil, 0, fmt.Errorf("expr: header has %d fields, want >= 2", len(header))
	}
	m := len(header) - 1
	rowBuf := make([]float32, m)
	seen := map[string]bool{}
	line := 1
	for sc.Scan() {
		line++
		lb := sc.Bytes()
		if len(lb) == 0 {
			continue // trailing blank line
		}
		// One counting pass pins the field count before any parsing, so
		// a ragged row errors with the same shape check as ReadTSV.
		if fields := bytes.Count(lb, []byte{'\t'}) + 1; fields != m+1 {
			return nil, 0, fmt.Errorf("expr: line %d has %d fields, want %d", line, fields, m+1)
		}
		// Gene name: first field.
		cut := bytes.IndexByte(lb, '\t')
		gene := string(lb[:cut])
		rest := lb[cut+1:]
		for i := 0; i < m; i++ {
			var f []byte
			if idx := bytes.IndexByte(rest, '\t'); idx >= 0 {
				f, rest = rest[:idx], rest[idx+1:]
			} else {
				f = rest
			}
			// Microarray exports mark missing measurements as NA (or
			// leave the field empty); represent them as NaN and let the
			// caller impute.
			if len(f) == 0 || string(f) == "NA" || string(f) == "na" || string(f) == "N/A" {
				rowBuf[i] = float32(math.NaN())
				continue
			}
			v, err := strconv.ParseFloat(string(f), 32)
			if err != nil {
				return nil, 0, fmt.Errorf("expr: line %d field %d: %w", line, i+2, err)
			}
			rowBuf[i] = float32(v)
		}
		if err := checkRow(line, gene, rowBuf, seen); err != nil {
			return nil, 0, err
		}
		if err := sink(gene, rowBuf); err != nil {
			return nil, 0, err
		}
		genes = append(genes, gene)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(genes) == 0 {
		return nil, 0, fmt.Errorf("expr: no gene rows")
	}
	return genes, m, nil
}

// StreamTSV parses the same header+rows expression TSV as ReadTSV, but
// streams rows straight into one contiguous, geometrically grown
// float32 buffer (mat.Matrix32) instead of staging a [][]float32 and
// copying it into a matrix afterwards. At whole-genome scale the
// difference matters: ReadTSV's staging holds two copies of the matrix
// plus one slice header and allocation per gene at peak; StreamTSV
// holds the matrix once plus grow slack during ingest — and the slack
// is released by a final Shrink, so the returned Dataset holds exactly
// rows·cols floats plus the one shared row buffer. Field splitting
// walks the tab positions in place — no strings.Split allocation per
// line.
//
// Accept/reject behavior and the resulting Dataset match ReadTSV
// exactly (the fuzz corpus pins the parity), including NA/empty-field
// NaN handling and blank-line skipping.
func StreamTSV(r io.Reader) (*Dataset, error) {
	var mx *mat.Matrix32
	genes, _, err := StreamTSVRows(r, func(gene string, row []float32) error {
		if mx == nil {
			mx = mat.NewMatrix32Hint(len(row), 256)
		}
		return mx.AppendRow(row)
	})
	if err != nil {
		return nil, err
	}
	mx.Shrink()
	return &Dataset{Genes: genes, Expr: mx.AsDense(), Truth: make([][]int, mx.Rows())}, nil
}
