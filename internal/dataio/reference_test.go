package dataio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
)

// readCSVReference is ReadCSV as it was before the block decoder: a
// bufio.Scanner loop that allocates a string and a split slice per line.
// It is the oracle the decoder's results and errors must equal.
func readCSVReference(r io.Reader) (*data.Dataset, error) {
	ds := &data.Dataset{Name: "unnamed", NoiseFrac: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			parseHeader(ds, text)
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("dataio: line %d: expected x,y got %q", line, text)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: bad x: %w", line, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: bad y: %w", line, err)
		}
		ds.Points = append(ds.Points, geom.Point{X: x, Y: y})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataio: read csv: %w", err)
	}
	return ds, nil
}

// writeLabelsCSVReference is WriteLabelsCSV as it was before the table
// encoder: two strconv.AppendInt calls per row into one reused buffer. It
// is the oracle the encoder's bytes must equal.
func writeLabelsCSVReference(w io.Writer, res *cluster.Result) error {
	const size, row = 32 << 10, 2*20 + 2 // a row is two int64s, ',' and '\n'
	buf := make([]byte, 0, size)
	buf = strconv.AppendInt(append(buf, "# clusters: "...), int64(res.NumClusters), 10)
	buf = append(buf, '\n')
	for i, l := range res.Labels {
		if len(buf) > size-row {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataio: write labels: %w", err)
			}
			buf = buf[:0]
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(l), 10)
		buf = append(buf, '\n')
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataio: write labels: %w", err)
	}
	return nil
}

// ReadLabelsCSV parses a clustering written by WriteLabelsCSV. Only the
// tests read labels back; the service and the CLIs only write them.
func ReadLabelsCSV(r io.Reader) (*cluster.Result, error) {
	res := &cluster.Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(text, "#"))
			if key, value, ok := strings.Cut(body, ":"); ok && strings.TrimSpace(key) == "clusters" {
				if n, err := strconv.Atoi(strings.TrimSpace(value)); err == nil {
					res.NumClusters = n
				}
			}
			continue
		}
		idxStr, labelStr, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("dataio: line %d: expected index,label got %q", line, text)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: bad index: %w", line, err)
		}
		label, err := strconv.ParseInt(strings.TrimSpace(labelStr), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: bad label: %w", line, err)
		}
		if idx != len(res.Labels) {
			return nil, fmt.Errorf("dataio: line %d: non-sequential index %d", line, idx)
		}
		res.Labels = append(res.Labels, int32(label))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataio: read labels: %w", err)
	}
	return res, nil
}
