package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCSV emits src as comma-separated rows, one sample per line.
// Intended for exporting small functional datasets for inspection.
func WriteCSV(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	buf := make([]float64, src.D())
	for i := 0; i < src.N(); i++ {
		src.Sample(i, buf)
		for u, v := range buf {
			if u > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated numeric rows into a Matrix. Blank
// lines are skipped; all rows must have the same column count, and
// every value must be finite.
func ReadCSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rows [][]float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %d: %w", line, j+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: line %d column %d is %g, want a finite value", line, j+1, v)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: CSV contains no data rows")
	}
	return FromRows(rows)
}
