package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vdbscan"
)

// minQuality is the paper's floor for VariantDBSCAN against plain DBSCAN
// (§V-D): the per-point Jaccard score of a reused variant. It is a claim
// about datasets of realistic size: at the few thousand points of the smoke
// tests one differently attached border region already costs more than
// 0.002 (0.982 at 2000 points, 0.997 at 5000), so runs at Scale < 1 only
// check that nothing is grossly wrong.
const (
	minQuality      = 0.998
	minQualitySmoke = 0.95
)

// facts are the order-independent properties of one clustering that DBSCAN
// fixes uniquely: how many clusters, how many noise points, and exactly
// which points are noise. Cluster numbering and border attachment are not
// among them, so a change that renumbers clusters still passes.
type facts struct {
	Clusters int    `json:"clusters"`
	Noise    int    `json:"noise"`
	NoiseSHA string `json:"noise_sha256"`
}

func factsOf(numClusters int, labels []int32) facts {
	bitmap := make([]byte, (len(labels)+7)/8)
	noise := 0
	for i, l := range labels {
		if l == vdbscan.Noise {
			bitmap[i/8] |= 1 << (i % 8)
			noise++
		}
	}
	sum := sha256.Sum256(bitmap)
	return facts{Clusters: numClusters, Noise: noise, NoiseSHA: hex.EncodeToString(sum[:])}
}

// reference holds the single-thread from-scratch clustering of one variant
// on the index kind the workload does not use.
type reference struct {
	Params vdbscan.Params
	Facts  facts
	Result *vdbscan.Clustering
}

// buildReferences clusters every variant from scratch, one thread, on an
// index of the given kind.
func buildReferences(pts []vdbscan.Point, kind vdbscan.IndexKind, params []vdbscan.Params) ([]reference, error) {
	ix := vdbscan.NewIndex(pts, vdbscan.WithIndexKind(kind))
	refs := make([]reference, len(params))
	for i, p := range params {
		res, err := ix.Cluster(p)
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", p, err)
		}
		refs[i] = reference{Params: p, Facts: factsOf(res.NumClusters, res.Labels), Result: res}
	}
	return refs, nil
}

// otherKind is the index kind a workload on kind k is checked against.
func otherKind(k vdbscan.IndexKind) vdbscan.IndexKind {
	if k == vdbscan.IndexGrid {
		return vdbscan.IndexRTree
	}
	return vdbscan.IndexGrid
}

// checkFacts compares one produced clustering with its reference.
func checkFacts(ref reference, got facts) error {
	if got != ref.Facts {
		return fmt.Errorf("variant %v: got %d clusters / %d noise / noise set %.12s, reference has %d / %d / %.12s",
			ref.Params, got.Clusters, got.Noise, got.NoiseSHA, ref.Facts.Clusters, ref.Facts.Noise, ref.Facts.NoiseSHA)
	}
	return nil
}

// checkQuality scores a produced clustering against its reference and
// returns the score; below the paper's floor is an error.
func checkQuality(ref reference, got *vdbscan.Clustering, floor float64) (float64, error) {
	q, err := vdbscan.Quality(ref.Result, got)
	if err != nil {
		return 0, err
	}
	if q < floor {
		return q, fmt.Errorf("variant %v: Jaccard quality %.6f below %.3f", ref.Params, q, floor)
	}
	return q, nil
}

// sampled returns the first, middle and last index of a set of n variants.
func sampled(n int) []int {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return []int{0}
	case n == 2:
		return []int{0, 1}
	}
	return []int{0, n / 2, n - 1}
}

// parseLabelsCSV reads the "index,label" rows vdbscand serves, with the
// "# clusters: K" header. It is the harness's own reader: rows must be
// sequential from 0.
func parseLabelsCSV(b []byte) (*vdbscan.Clustering, error) {
	res := &vdbscan.Clustering{}
	line := 0
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		row := b
		if nl >= 0 {
			row, b = b[:nl], b[nl+1:]
		} else {
			b = nil
		}
		line++
		if len(row) == 0 {
			continue
		}
		if row[0] == '#' {
			if rest, ok := bytes.CutPrefix(row, []byte("# clusters: ")); ok {
				k, err := strconv.Atoi(string(bytes.TrimSpace(rest)))
				if err != nil {
					return nil, fmt.Errorf("labels line %d: %w", line, err)
				}
				res.NumClusters = k
			}
			continue
		}
		comma := bytes.IndexByte(row, ',')
		if comma < 0 {
			return nil, fmt.Errorf("labels line %d: no comma in %q", line, row)
		}
		idx, err := strconv.Atoi(string(row[:comma]))
		if err != nil || idx != len(res.Labels) {
			return nil, fmt.Errorf("labels line %d: index %q, want %d", line, row[:comma], len(res.Labels))
		}
		l, err := strconv.ParseInt(string(row[comma+1:]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("labels line %d: %w", line, err)
		}
		res.Labels = append(res.Labels, int32(l))
	}
	return res, nil
}

// golden pins the reference facts of the default seed, so a change that
// moves the workload's answers and the reference implementation's answers
// together is still caught. Other seeds are checked against the live
// reference only.
type golden struct {
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string][]facts `json:"workloads"` // workload -> "n=<points>" -> facts per variant
}

const defaultSeed = 20160523 // IPDPS 2016, the paper's venue

func goldenPath() string { return filepath.Join(benchDir(), "testdata", "golden.json") }

func loadGolden() (*golden, error) {
	b, err := os.ReadFile(goldenPath())
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(), err)
	}
	return &g, nil
}

func sizeKey(n int) string { return "n=" + strconv.Itoa(n) }

// checkGolden compares refs with the pinned facts when the run uses the
// default seed and a pinned size. A missing file or entry is not an error:
// smoke-scale tests and odd sizes have no pin.
func checkGolden(workload string, n int, seed int64, refs []reference) error {
	if seed != defaultSeed {
		return nil
	}
	g, err := loadGolden()
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	want, ok := g.Workloads[workload][sizeKey(n)]
	if !ok || g.Seed != seed {
		return nil
	}
	if len(want) != len(refs) {
		return fmt.Errorf("golden: %s has %d variants, run has %d", workload, len(want), len(refs))
	}
	for i, r := range refs {
		if r.Facts != want[i] {
			return fmt.Errorf("golden: %s variant %v: reference now gives %+v, pinned %+v (run -write-golden only if the change is meant)",
				workload, r.Params, r.Facts, want[i])
		}
	}
	return nil
}

// writeGolden replaces one workload's entry in the golden file.
func writeGolden(workload string, n int, seed int64, refs []reference) error {
	g, err := loadGolden()
	if err != nil || g.Seed != seed {
		g = &golden{Seed: seed, Workloads: map[string]map[string][]facts{}}
	}
	fs := make([]facts, len(refs))
	for i, r := range refs {
		fs[i] = r.Facts
	}
	g.Workloads[workload] = map[string][]facts{sizeKey(n): fs}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(b, '\n'), 0o644)
}
