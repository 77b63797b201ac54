package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cludistream/internal/linalg"
)

// WriteCSV writes records as comma-separated float64 rows. It is the
// dataset interchange format of cmd/datagen.
func WriteCSV(w io.Writer, data []linalg.Vector) error {
	bw := bufio.NewWriter(w)
	for _, x := range data {
		for i, v := range x {
			if i > 0 {
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

// ReadCSV parses rows written by WriteCSV. All rows must share one
// dimensionality; blank lines are skipped.
func ReadCSV(r io.Reader) ([]linalg.Vector, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []linalg.Vector
	line := 0
	dim := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if dim == -1 {
			dim = len(fields)
		} else if len(fields) != dim {
			return nil, fmt.Errorf("stream: line %d has %d fields, want %d", line, len(fields), dim)
		}
		x := linalg.NewVector(len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("stream: line %d field %d: %w", line, i+1, err)
			}
			x[i] = v
		}
		out = append(out, x)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
