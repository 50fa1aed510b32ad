// Package dataio persists datasets and clustering results.
//
// Two formats are supported:
//
//   - CSV — one "x,y" row per point, with "# key: value" header comments
//     carrying dataset provenance; interoperable with external tools and
//     with the layout of the paper's published dbscandat archive.
//   - gob — a compact binary container for fast reload of large datasets by
//     the benchmark harness.
package dataio

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
)

// WriteCSV writes ds as CSV with a provenance header.
func WriteCSV(w io.Writer, ds *data.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# name: %s\n", ds.Name)
	fmt.Fprintf(bw, "# points: %d\n", ds.Len())
	fmt.Fprintf(bw, "# noise_frac: %g\n", ds.NoiseFrac)
	fmt.Fprintf(bw, "# synth_clusters: %d\n", ds.SynthClusters)
	fmt.Fprintf(bw, "# seed: %d\n", ds.Seed)
	for _, p := range ds.Points {
		if _, err := fmt.Fprintf(bw, "%s,%s\n",
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64)); err != nil {
			return fmt.Errorf("dataio: write csv: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV. Header comments are
// optional; bare "x,y" files load with default provenance.
func ReadCSV(r io.Reader) (*data.Dataset, error) {
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

func parseHeader(ds *data.Dataset, text string) {
	body := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	key, value, ok := strings.Cut(body, ":")
	if !ok {
		return
	}
	value = strings.TrimSpace(value)
	switch strings.TrimSpace(key) {
	case "name":
		ds.Name = value
	case "noise_frac":
		if f, err := strconv.ParseFloat(value, 64); err == nil {
			ds.NoiseFrac = f
		}
	case "synth_clusters":
		if n, err := strconv.Atoi(value); err == nil {
			ds.SynthClusters = n
		}
	case "seed":
		if n, err := strconv.ParseUint(value, 10, 64); err == nil {
			ds.Seed = n
		}
	}
}

// gobDataset is the stable on-disk schema, decoupled from data.Dataset so
// internal refactors do not silently break saved files.
type gobDataset struct {
	Name          string
	X, Y          []float64
	NoiseFrac     float64
	SynthClusters int
	Seed          uint64
}

// WriteGob writes ds in the binary format.
func WriteGob(w io.Writer, ds *data.Dataset) error {
	g := gobDataset{
		Name:          ds.Name,
		X:             make([]float64, ds.Len()),
		Y:             make([]float64, ds.Len()),
		NoiseFrac:     ds.NoiseFrac,
		SynthClusters: ds.SynthClusters,
		Seed:          ds.Seed,
	}
	for i, p := range ds.Points {
		g.X[i], g.Y[i] = p.X, p.Y
	}
	if err := gob.NewEncoder(w).Encode(&g); err != nil {
		return fmt.Errorf("dataio: write gob: %w", err)
	}
	return nil
}

// ReadGob reads a dataset written by WriteGob.
func ReadGob(r io.Reader) (*data.Dataset, error) {
	var g gobDataset
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("dataio: read gob: %w", err)
	}
	if len(g.X) != len(g.Y) {
		return nil, fmt.Errorf("dataio: corrupt gob: %d xs, %d ys", len(g.X), len(g.Y))
	}
	ds := &data.Dataset{
		Name:          g.Name,
		Points:        make([]geom.Point, len(g.X)),
		NoiseFrac:     g.NoiseFrac,
		SynthClusters: g.SynthClusters,
		Seed:          g.Seed,
	}
	for i := range g.X {
		ds.Points[i] = geom.Point{X: g.X[i], Y: g.Y[i]}
	}
	return ds, nil
}

// SaveDataset writes ds to path, choosing the format by extension:
// ".csv" for CSV, anything else for gob.
func SaveDataset(path string, ds *data.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		if err := WriteCSV(f, ds); err != nil {
			return err
		}
	} else if err := WriteGob(f, ds); err != nil {
		return err
	}
	return f.Close()
}

// LoadDataset reads a dataset from path, choosing the format by extension.
func LoadDataset(path string) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return ReadCSV(f)
	}
	return ReadGob(f)
}

// WriteLabelsCSV writes a clustering as "index,label" rows. Labels use the
// cluster package's convention (-1 noise, 1..K clusters). Rows are encoded
// into one reused buffer, written whenever it fills.
func WriteLabelsCSV(w io.Writer, res *cluster.Result) error {
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

// ReadLabelsCSV parses a clustering written by WriteLabelsCSV.
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
