// Package soft parses the NCBI GEO SOFT (Simple Omnibus Format in
// Text) family format — the format microarray compendia like the
// paper's 3,137 Arabidopsis thaliana experiments are actually
// distributed in (GEO series/dataset files).
//
// The subset implemented covers what expression-matrix assembly needs:
//
//	^DATABASE / ^SERIES / ^PLATFORM headers with !attribute lines,
//	^SAMPLE blocks with !attribute lines and a #-described data table
//	between !sample_table_begin and !sample_table_end holding
//	ID_REF / VALUE columns,
//	^DATASET blocks with a single combined table between
//	!dataset_table_begin and !dataset_table_end (one column per sample).
//
// Assemble() intersects probe IDs across samples and produces an
// expr.Dataset (genes × samples), imputing nothing: missing or
// non-numeric VALUEs become NaN for the caller to impute.
package soft

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/mat"
)

// Sample is one ^SAMPLE block: attributes plus its probe→value table.
type Sample struct {
	ID         string
	Attributes map[string]string
	// Values maps probe ID_REF to VALUE; missing/unparsable values are
	// NaN.
	Values map[string]float64
}

// File is a parsed SOFT family file.
type File struct {
	// Series/Platform/Database attributes keyed by the !attribute name
	// (without the leading '!').
	Series   map[string]string
	Platform map[string]string
	Samples  []Sample
	// Dataset holds a ^DATASET combined table if present: probe →
	// per-sample values, with SampleOrder naming the columns.
	Dataset     map[string][]float64
	SampleOrder []string
}

// Parse reads a SOFT family file.
func Parse(r io.Reader) (*File, error) {
	f := &File{
		Series:   map[string]string{},
		Platform: map[string]string{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	type section int
	const (
		none section = iota
		series
		platform
		database
		sample
		dataset
	)
	cur := none
	var curSample *Sample
	inSampleTable := false
	inDatasetTable := false
	datasetHeaderSeen := false
	var sampleValueCol int = -1
	line := 0

	flushSample := func() {
		if curSample != nil {
			f.Samples = append(f.Samples, *curSample)
			curSample = nil
		}
	}

	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, "^"):
			if inSampleTable || inDatasetTable {
				return nil, fmt.Errorf("soft: line %d: new entity inside a table", line)
			}
			flushSample()
			fields := strings.SplitN(text[1:], "=", 2)
			kind := strings.ToUpper(strings.TrimSpace(fields[0]))
			id := ""
			if len(fields) == 2 {
				id = strings.TrimSpace(fields[1])
			}
			switch kind {
			case "SERIES":
				cur = series
			case "PLATFORM":
				cur = platform
			case "DATABASE":
				cur = database
			case "SAMPLE":
				cur = sample
				curSample = &Sample{
					ID:         id,
					Attributes: map[string]string{},
					Values:     map[string]float64{},
				}
				sampleValueCol = -1
			case "DATASET":
				cur = dataset
				datasetHeaderSeen = false
			default:
				return nil, fmt.Errorf("soft: line %d: unknown entity %q", line, kind)
			}
		case strings.HasPrefix(text, "!"):
			body := text[1:]
			switch {
			case strings.EqualFold(body, "sample_table_begin"):
				if cur != sample || curSample == nil {
					return nil, fmt.Errorf("soft: line %d: sample table outside ^SAMPLE", line)
				}
				inSampleTable = true
				sampleValueCol = -1
				continue
			case strings.EqualFold(body, "sample_table_end"):
				if !inSampleTable {
					return nil, fmt.Errorf("soft: line %d: stray sample_table_end", line)
				}
				inSampleTable = false
				continue
			case strings.EqualFold(body, "dataset_table_begin"):
				if cur != dataset {
					return nil, fmt.Errorf("soft: line %d: dataset table outside ^DATASET", line)
				}
				inDatasetTable = true
				datasetHeaderSeen = false
				f.Dataset = map[string][]float64{}
				continue
			case strings.EqualFold(body, "dataset_table_end"):
				if !inDatasetTable {
					return nil, fmt.Errorf("soft: line %d: stray dataset_table_end", line)
				}
				inDatasetTable = false
				continue
			}
			kv := strings.SplitN(body, "=", 2)
			key := strings.TrimSpace(kv[0])
			val := ""
			if len(kv) == 2 {
				val = strings.TrimSpace(kv[1])
			}
			switch cur {
			case series:
				f.Series[key] = val
			case platform, database:
				f.Platform[key] = val
			case sample:
				if curSample != nil {
					curSample.Attributes[key] = val
				}
			}
		case strings.HasPrefix(text, "#"):
			// Column description lines; ignored.
		default:
			switch {
			case inSampleTable:
				cols := strings.Split(text, "\t")
				if sampleValueCol == -1 {
					// Header row: locate ID_REF and VALUE.
					valueCol := -1
					for i, c := range cols {
						if strings.EqualFold(strings.TrimSpace(c), "VALUE") {
							valueCol = i
						}
					}
					if !strings.EqualFold(strings.TrimSpace(cols[0]), "ID_REF") || valueCol == -1 {
						return nil, fmt.Errorf("soft: line %d: sample table header missing ID_REF/VALUE", line)
					}
					sampleValueCol = valueCol
					continue
				}
				if len(cols) <= sampleValueCol {
					return nil, fmt.Errorf("soft: line %d: short sample table row", line)
				}
				curSample.Values[strings.TrimSpace(cols[0])] = parseValue(cols[sampleValueCol])
			case inDatasetTable:
				cols := strings.Split(text, "\t")
				if !datasetHeaderSeen {
					if len(cols) < 3 || !strings.EqualFold(strings.TrimSpace(cols[0]), "ID_REF") {
						return nil, fmt.Errorf("soft: line %d: dataset table header missing ID_REF", line)
					}
					// Column 1 is IDENTIFIER; samples start at column 2.
					f.SampleOrder = append([]string(nil), cols[2:]...)
					datasetHeaderSeen = true
					continue
				}
				if len(cols) != len(f.SampleOrder)+2 {
					return nil, fmt.Errorf("soft: line %d: dataset row has %d fields, want %d",
						line, len(cols), len(f.SampleOrder)+2)
				}
				vals := make([]float64, len(f.SampleOrder))
				for i := range vals {
					vals[i] = parseValue(cols[i+2])
				}
				id := strings.TrimSpace(cols[0])
				if _, dup := f.Dataset[id]; dup {
					return nil, fmt.Errorf("soft: line %d: duplicate ID_REF %q in dataset table", line, id)
				}
				f.Dataset[id] = vals
			default:
				return nil, fmt.Errorf("soft: line %d: unexpected data line outside any table", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if inSampleTable || inDatasetTable {
		return nil, fmt.Errorf("soft: unterminated table at EOF")
	}
	flushSample()
	return f, nil
}

func parseValue(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") || strings.EqualFold(s, "NA") {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Assemble builds an expression dataset from the parsed file. A
// ^DATASET combined table is used directly when present; otherwise the
// per-^SAMPLE tables are joined on the probe IDs common to every
// sample. Probes are sorted lexicographically for determinism. It
// errors when there are no samples or no common probes.
func (f *File) Assemble() (*expr.Dataset, error) {
	if f.Dataset != nil {
		if len(f.Dataset) == 0 {
			return nil, fmt.Errorf("soft: empty dataset table")
		}
		probes := make([]string, 0, len(f.Dataset))
		for p := range f.Dataset {
			probes = append(probes, p)
		}
		sort.Strings(probes)
		m := mat.NewDense(len(probes), len(f.SampleOrder))
		for g, p := range probes {
			row := m.Row(g)
			for s, v := range f.Dataset[p] {
				row[s] = float32(v)
			}
		}
		return &expr.Dataset{Genes: probes, Expr: m, Truth: make([][]int, len(probes))}, nil
	}
	if len(f.Samples) == 0 {
		return nil, fmt.Errorf("soft: no samples")
	}
	// Intersect probe sets.
	common := map[string]int{}
	for p := range f.Samples[0].Values {
		common[p] = 1
	}
	for _, s := range f.Samples[1:] {
		for p := range s.Values {
			if _, ok := common[p]; ok {
				common[p]++
			}
		}
	}
	var probes []string
	for p, c := range common {
		if c == len(f.Samples) {
			probes = append(probes, p)
		}
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("soft: no probes common to all %d samples", len(f.Samples))
	}
	sort.Strings(probes)
	m := mat.NewDense(len(probes), len(f.Samples))
	for g, p := range probes {
		row := m.Row(g)
		for s := range f.Samples {
			row[s] = float32(f.Samples[s].Values[p])
		}
	}
	return &expr.Dataset{Genes: probes, Expr: m, Truth: make([][]int, len(probes))}, nil
}

// WriteSeries emits a dataset as a minimal SOFT series file (one
// ^SAMPLE block per experiment), primarily to generate test fixtures
// and to round-trip synthetic data through the same path real data
// takes.
func WriteSeries(w io.Writer, d *expr.Dataset, title string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "^SERIES = %s\n", title)
	fmt.Fprintf(bw, "!Series_title = %s\n", title)
	fmt.Fprintf(bw, "!Series_sample_count = %d\n", d.M())
	for s := 0; s < d.M(); s++ {
		fmt.Fprintf(bw, "^SAMPLE = S%04d\n", s)
		fmt.Fprintf(bw, "!Sample_title = experiment %d\n", s)
		fmt.Fprintln(bw, "!sample_table_begin")
		fmt.Fprintln(bw, "ID_REF\tVALUE")
		for g := 0; g < d.N(); g++ {
			v := d.Expr.At(g, s)
			if math.IsNaN(float64(v)) {
				fmt.Fprintf(bw, "%s\tnull\n", d.Genes[g])
			} else {
				fmt.Fprintf(bw, "%s\t%g\n", d.Genes[g], v)
			}
		}
		fmt.Fprintln(bw, "!sample_table_end")
	}
	return bw.Flush()
}
